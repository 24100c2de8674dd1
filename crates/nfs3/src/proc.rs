//! NFSv3 procedure numbers, argument and result messages.
//!
//! Result types follow the RFC 1813 union layout: a status discriminant
//! followed by an OK arm or a fail arm (which usually still carries
//! post-op attributes for client cache maintenance).

use crate::types::*;
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError, XdrResult};

/// Procedure numbers.
#[allow(missing_docs)]
pub mod procnum {
    pub const NULL: u32 = 0;
    pub const GETATTR: u32 = 1;
    pub const SETATTR: u32 = 2;
    pub const LOOKUP: u32 = 3;
    pub const ACCESS: u32 = 4;
    pub const READLINK: u32 = 5;
    pub const READ: u32 = 6;
    pub const WRITE: u32 = 7;
    pub const CREATE: u32 = 8;
    pub const MKDIR: u32 = 9;
    pub const SYMLINK: u32 = 10;
    pub const MKNOD: u32 = 11;
    pub const REMOVE: u32 = 12;
    pub const RMDIR: u32 = 13;
    pub const RENAME: u32 = 14;
    pub const LINK: u32 = 15;
    pub const READDIR: u32 = 16;
    pub const READDIRPLUS: u32 = 17;
    pub const FSSTAT: u32 = 18;
    pub const FSINFO: u32 = 19;
    pub const PATHCONF: u32 = 20;
    pub const COMMIT: u32 = 21;
}

// ---------------- GETATTR ----------------

/// GETATTR result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetAttrRes {
    /// Status; attributes present iff `Ok`.
    pub status: NfsStat3,
    /// The attributes.
    pub attr: Option<Fattr3>,
}

impl XdrEncode for GetAttrRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.attr.as_ref().expect("OK GETATTR carries attributes").encode(enc);
        }
    }
}

impl XdrDecode for GetAttrRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let attr = if status == NfsStat3::Ok { Some(Fattr3::decode(dec)?) } else { None };
        Ok(Self { status, attr })
    }
}

// ---------------- SETATTR ----------------

/// SETATTR arguments (guard check omitted; the stack never uses it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAttrArgs {
    /// Target object.
    pub object: Fh3,
    /// New attributes.
    pub new_attributes: Sattr3,
}

impl XdrEncode for SetAttrArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.object.encode(enc);
        self.new_attributes.encode(enc);
        enc.put_bool(false); // guard: check = FALSE
    }
}

impl XdrDecode for SetAttrArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let object = Fh3::decode(dec)?;
        let new_attributes = Sattr3::decode(dec)?;
        if dec.get_bool()? {
            let _guard_ctime = NfsTime3::decode(dec)?;
        }
        Ok(Self { object, new_attributes })
    }
}

/// SETATTR result: status + wcc data either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccRes {
    /// Status.
    pub status: NfsStat3,
    /// Cache-consistency data.
    pub wcc: WccData,
}

impl XdrEncode for WccRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.wcc.encode(enc);
    }
}

impl XdrDecode for WccRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { status: NfsStat3::decode(dec)?, wcc: WccData::decode(dec)? })
    }
}

// ---------------- LOOKUP ----------------

/// LOOKUP result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupRes {
    /// Status.
    pub status: NfsStat3,
    /// Found object's handle (OK only).
    pub object: Option<Fh3>,
    /// Found object's attributes (OK only).
    pub obj_attr: PostOpAttr,
    /// Directory attributes (both arms).
    pub dir_attr: PostOpAttr,
}

impl XdrEncode for LookupRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.object.as_ref().expect("OK LOOKUP carries a handle").encode(enc);
            self.obj_attr.encode(enc);
        }
        self.dir_attr.encode(enc);
    }
}

impl XdrDecode for LookupRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let (object, obj_attr) = if status == NfsStat3::Ok {
            (Some(Fh3::decode(dec)?), Option::decode(dec)?)
        } else {
            (None, None)
        };
        Ok(Self { status, object, obj_attr, dir_attr: Option::decode(dec)? })
    }
}

// ---------------- ACCESS ----------------

/// ACCESS arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessArgs {
    /// Object to check.
    pub object: Fh3,
    /// Requested access bits.
    pub access: u32,
}

impl XdrEncode for AccessArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.object.encode(enc);
        enc.put_u32(self.access);
    }
}

impl XdrDecode for AccessArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { object: Fh3::decode(dec)?, access: dec.get_u32()? })
    }
}

/// ACCESS result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRes {
    /// Status.
    pub status: NfsStat3,
    /// Post-op attributes (both arms).
    pub obj_attr: PostOpAttr,
    /// Granted bits (OK only).
    pub access: u32,
}

impl XdrEncode for AccessRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.obj_attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u32(self.access);
        }
    }
}

impl XdrDecode for AccessRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let obj_attr = Option::decode(dec)?;
        let access = if status == NfsStat3::Ok { dec.get_u32()? } else { 0 };
        Ok(Self { status, obj_attr, access })
    }
}

// ---------------- READLINK ----------------

/// READLINK result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadlinkRes {
    /// Status.
    pub status: NfsStat3,
    /// Symlink attributes.
    pub attr: PostOpAttr,
    /// Target path (OK only).
    pub path: String,
}

impl XdrEncode for ReadlinkRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_string(&self.path);
        }
    }
}

impl XdrDecode for ReadlinkRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let attr = Option::decode(dec)?;
        let path = if status == NfsStat3::Ok { dec.get_string_max(4096)? } else { String::new() };
        Ok(Self { status, attr, path })
    }
}

// ---------------- READ ----------------

/// READ arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadArgs {
    /// File to read.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Byte count.
    pub count: u32,
}

impl XdrEncode for ReadArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
    }
}

impl XdrDecode for ReadArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { file: Fh3::decode(dec)?, offset: dec.get_u64()?, count: dec.get_u32()? })
    }
}

/// READ result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRes {
    /// Status.
    pub status: NfsStat3,
    /// File attributes.
    pub attr: PostOpAttr,
    /// Bytes returned (OK only).
    pub count: u32,
    /// End of file reached.
    pub eof: bool,
    /// The data.
    pub data: Vec<u8>,
}

impl ReadRes {
    /// Encode a successful READ result straight from borrowed `data` —
    /// the wire form of a `ReadRes` with status OK and `count` =
    /// `data.len()`, without the owned copy of the data one would need.
    pub fn encode_ok(enc: &mut XdrEncoder, attr: &PostOpAttr, eof: bool, data: &[u8]) {
        Self::encode_ok_counted(enc, attr, data.len() as u32, eof, data);
    }

    fn encode_ok_counted(
        enc: &mut XdrEncoder,
        attr: &PostOpAttr,
        count: u32,
        eof: bool,
        data: &[u8],
    ) {
        NfsStat3::Ok.encode(enc);
        attr.encode(enc);
        enc.put_u32(count);
        enc.put_bool(eof);
        enc.put_opaque(data);
    }
}

impl XdrEncode for ReadRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        if self.status == NfsStat3::Ok {
            Self::encode_ok_counted(enc, &self.attr, self.count, self.eof, &self.data);
        } else {
            self.status.encode(enc);
            self.attr.encode(enc);
        }
    }
}

impl XdrDecode for ReadRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let attr = Option::decode(dec)?;
        if status == NfsStat3::Ok {
            Ok(Self {
                status,
                attr,
                count: dec.get_u32()?,
                eof: dec.get_bool()?,
                data: dec.get_opaque()?,
            })
        } else {
            Ok(Self { status, attr, count: 0, eof: false, data: Vec::new() })
        }
    }
}

// ---------------- WRITE ----------------

/// WRITE arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteArgs {
    /// File to write.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Stability requested.
    pub stable: StableHow,
    /// The data.
    pub data: Vec<u8>,
}

impl XdrEncode for WriteArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        encode_write(enc, &self.file, self.offset, self.stable, &self.data);
    }
}

/// WRITE's wire form: the count is the data's length.
fn encode_write(enc: &mut XdrEncoder, file: &Fh3, offset: u64, stable: StableHow, data: &[u8]) {
    file.encode(enc);
    enc.put_u64(offset);
    enc.put_u32(data.len() as u32);
    stable.encode(enc);
    enc.put_opaque(data);
}

impl XdrDecode for WriteArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let a = WriteArgsRef::decode(dec)?;
        Ok(Self { file: a.file, offset: a.offset, stable: a.stable, data: a.data.to_vec() })
    }
}

/// WRITE arguments with the data borrowed: what a server that only
/// copies the data into its file decodes from the call record, and what a
/// client encodes straight from its page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteArgsRef<'a> {
    /// File to write.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Stability requested.
    pub stable: StableHow,
    /// The data, in place in the decoded buffer.
    pub data: &'a [u8],
}

impl<'a> WriteArgsRef<'a> {
    /// Decode [`WriteArgs`]' wire form without copying the data.
    pub fn decode(dec: &mut XdrDecoder<'a>) -> XdrResult<Self> {
        let file = Fh3::decode(dec)?;
        let offset = dec.get_u64()?;
        let count = dec.get_u32()?;
        let stable = StableHow::decode(dec)?;
        let data = dec.get_opaque_ref()?;
        if data.len() != count as usize {
            return Err(XdrError::InvalidEnum { what: "write count", value: count });
        }
        Ok(Self { file, offset, stable, data })
    }
}

impl XdrEncode for WriteArgsRef<'_> {
    fn encode(&self, enc: &mut XdrEncoder) {
        encode_write(enc, &self.file, self.offset, self.stable, self.data);
    }
}

/// WRITE result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRes {
    /// Status.
    pub status: NfsStat3,
    /// Cache-consistency data.
    pub wcc: WccData,
    /// Bytes written (OK only).
    pub count: u32,
    /// Stability achieved.
    pub committed: StableHow,
    /// Write verifier (detects server reboots between WRITE and COMMIT).
    pub verf: u64,
}

impl XdrEncode for WriteRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.wcc.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u32(self.count);
            self.committed.encode(enc);
            enc.put_u64(self.verf);
        }
    }
}

impl XdrDecode for WriteRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let wcc = WccData::decode(dec)?;
        if status == NfsStat3::Ok {
            Ok(Self {
                status,
                wcc,
                count: dec.get_u32()?,
                committed: StableHow::decode(dec)?,
                verf: dec.get_u64()?,
            })
        } else {
            Ok(Self { status, wcc, count: 0, committed: StableHow::Unstable, verf: 0 })
        }
    }
}

// ---------------- CREATE / MKDIR / SYMLINK ----------------

/// CREATE mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CreateMode {
    /// Create or open existing.
    Unchecked(Sattr3),
    /// Fail if the name exists.
    Guarded(Sattr3),
    /// Exclusive create keyed by a client verifier.
    Exclusive(u64),
}

/// CREATE arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateArgs {
    /// Where to create.
    pub where_: DirOpArgs3,
    /// How to create.
    pub how: CreateMode,
}

impl XdrEncode for CreateArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.where_.encode(enc);
        match &self.how {
            CreateMode::Unchecked(s) => {
                enc.put_u32(0);
                s.encode(enc);
            }
            CreateMode::Guarded(s) => {
                enc.put_u32(1);
                s.encode(enc);
            }
            CreateMode::Exclusive(v) => {
                enc.put_u32(2);
                enc.put_u64(*v);
            }
        }
    }
}

impl XdrDecode for CreateArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let where_ = DirOpArgs3::decode(dec)?;
        let how = match dec.get_u32()? {
            0 => CreateMode::Unchecked(Sattr3::decode(dec)?),
            1 => CreateMode::Guarded(Sattr3::decode(dec)?),
            2 => CreateMode::Exclusive(dec.get_u64()?),
            other => return Err(XdrError::InvalidEnum { what: "createmode3", value: other }),
        };
        Ok(Self { where_, how })
    }
}

/// MKDIR arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkdirArgs {
    /// Where to create.
    pub where_: DirOpArgs3,
    /// Directory attributes.
    pub attributes: Sattr3,
}

impl XdrEncode for MkdirArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.where_.encode(enc);
        self.attributes.encode(enc);
    }
}

impl XdrDecode for MkdirArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { where_: DirOpArgs3::decode(dec)?, attributes: Sattr3::decode(dec)? })
    }
}

/// SYMLINK arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymlinkArgs {
    /// Where to create.
    pub where_: DirOpArgs3,
    /// Link attributes.
    pub attributes: Sattr3,
    /// Target path.
    pub target: String,
}

impl XdrEncode for SymlinkArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.where_.encode(enc);
        self.attributes.encode(enc);
        enc.put_string(&self.target);
    }
}

impl XdrDecode for SymlinkArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self {
            where_: DirOpArgs3::decode(dec)?,
            attributes: Sattr3::decode(dec)?,
            target: dec.get_string_max(4096)?,
        })
    }
}

/// Result shared by CREATE / MKDIR / SYMLINK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateRes {
    /// Status.
    pub status: NfsStat3,
    /// New object handle (OK only; optional per spec).
    pub obj: Option<Fh3>,
    /// New object attributes (OK only).
    pub obj_attr: PostOpAttr,
    /// Parent directory cache-consistency data.
    pub dir_wcc: WccData,
}

impl XdrEncode for CreateRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        if self.status == NfsStat3::Ok {
            self.obj.encode(enc);
            self.obj_attr.encode(enc);
        }
        self.dir_wcc.encode(enc);
    }
}

impl XdrDecode for CreateRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let (obj, obj_attr) = if status == NfsStat3::Ok {
            (Option::decode(dec)?, Option::decode(dec)?)
        } else {
            (None, None)
        };
        Ok(Self { status, obj, obj_attr, dir_wcc: WccData::decode(dec)? })
    }
}

// ---------------- RENAME / LINK ----------------

/// RENAME arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameArgs {
    /// Source.
    pub from: DirOpArgs3,
    /// Destination.
    pub to: DirOpArgs3,
}

impl XdrEncode for RenameArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.from.encode(enc);
        self.to.encode(enc);
    }
}

impl XdrDecode for RenameArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { from: DirOpArgs3::decode(dec)?, to: DirOpArgs3::decode(dec)? })
    }
}

/// RENAME result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameRes {
    /// Status.
    pub status: NfsStat3,
    /// Source directory wcc.
    pub from_wcc: WccData,
    /// Destination directory wcc.
    pub to_wcc: WccData,
}

impl XdrEncode for RenameRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.from_wcc.encode(enc);
        self.to_wcc.encode(enc);
    }
}

impl XdrDecode for RenameRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self {
            status: NfsStat3::decode(dec)?,
            from_wcc: WccData::decode(dec)?,
            to_wcc: WccData::decode(dec)?,
        })
    }
}

/// LINK arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkArgs {
    /// Existing file.
    pub file: Fh3,
    /// New location.
    pub link: DirOpArgs3,
}

impl XdrEncode for LinkArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        self.link.encode(enc);
    }
}

impl XdrDecode for LinkArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { file: Fh3::decode(dec)?, link: DirOpArgs3::decode(dec)? })
    }
}

/// LINK result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRes {
    /// Status.
    pub status: NfsStat3,
    /// File attributes after.
    pub attr: PostOpAttr,
    /// Link directory wcc.
    pub dir_wcc: WccData,
}

impl XdrEncode for LinkRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.attr.encode(enc);
        self.dir_wcc.encode(enc);
    }
}

impl XdrDecode for LinkRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self {
            status: NfsStat3::decode(dec)?,
            attr: Option::decode(dec)?,
            dir_wcc: WccData::decode(dec)?,
        })
    }
}

// ---------------- READDIR / READDIRPLUS ----------------

/// READDIR arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaddirArgs {
    /// Directory.
    pub dir: Fh3,
    /// Resume cookie (0 = start).
    pub cookie: u64,
    /// Cookie verifier.
    pub cookieverf: u64,
    /// Max reply bytes.
    pub count: u32,
}

impl XdrEncode for ReaddirArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.dir.encode(enc);
        enc.put_u64(self.cookie);
        enc.put_u64(self.cookieverf);
        enc.put_u32(self.count);
    }
}

impl XdrDecode for ReaddirArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self {
            dir: Fh3::decode(dec)?,
            cookie: dec.get_u64()?,
            cookieverf: dec.get_u64()?,
            count: dec.get_u32()?,
        })
    }
}

/// READDIR result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaddirRes {
    /// Status.
    pub status: NfsStat3,
    /// Directory attributes.
    pub dir_attr: PostOpAttr,
    /// Cookie verifier.
    pub cookieverf: u64,
    /// Entries (OK only).
    pub entries: Vec<Entry3>,
    /// True when the listing is complete.
    pub eof: bool,
}

impl XdrEncode for ReaddirRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.dir_attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u64(self.cookieverf);
            for e in &self.entries {
                enc.put_bool(true);
                enc.put_u64(e.fileid);
                enc.put_string(&e.name);
                enc.put_u64(e.cookie);
            }
            enc.put_bool(false);
            enc.put_bool(self.eof);
        }
    }
}

impl XdrDecode for ReaddirRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let dir_attr = Option::decode(dec)?;
        if status != NfsStat3::Ok {
            return Ok(Self { status, dir_attr, cookieverf: 0, entries: Vec::new(), eof: false });
        }
        let cookieverf = dec.get_u64()?;
        let mut entries = Vec::new();
        while dec.get_bool()? {
            entries.push(Entry3 {
                fileid: dec.get_u64()?,
                name: dec.get_string_max(255)?,
                cookie: dec.get_u64()?,
            });
        }
        let eof = dec.get_bool()?;
        Ok(Self { status, dir_attr, cookieverf, entries, eof })
    }
}

/// READDIRPLUS arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaddirPlusArgs {
    /// Directory.
    pub dir: Fh3,
    /// Resume cookie.
    pub cookie: u64,
    /// Cookie verifier.
    pub cookieverf: u64,
    /// Max bytes of directory information.
    pub dircount: u32,
    /// Max total reply bytes.
    pub maxcount: u32,
}

impl XdrEncode for ReaddirPlusArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.dir.encode(enc);
        enc.put_u64(self.cookie);
        enc.put_u64(self.cookieverf);
        enc.put_u32(self.dircount);
        enc.put_u32(self.maxcount);
    }
}

impl XdrDecode for ReaddirPlusArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self {
            dir: Fh3::decode(dec)?,
            cookie: dec.get_u64()?,
            cookieverf: dec.get_u64()?,
            dircount: dec.get_u32()?,
            maxcount: dec.get_u32()?,
        })
    }
}

/// READDIRPLUS result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaddirPlusRes {
    /// Status.
    pub status: NfsStat3,
    /// Directory attributes.
    pub dir_attr: PostOpAttr,
    /// Cookie verifier.
    pub cookieverf: u64,
    /// Entries with attributes and handles.
    pub entries: Vec<EntryPlus3>,
    /// Listing complete.
    pub eof: bool,
}

impl XdrEncode for ReaddirPlusRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.dir_attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u64(self.cookieverf);
            for e in &self.entries {
                enc.put_bool(true);
                enc.put_u64(e.fileid);
                enc.put_string(&e.name);
                enc.put_u64(e.cookie);
                e.attr.encode(enc);
                e.handle.encode(enc);
            }
            enc.put_bool(false);
            enc.put_bool(self.eof);
        }
    }
}

impl XdrDecode for ReaddirPlusRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let dir_attr = Option::decode(dec)?;
        if status != NfsStat3::Ok {
            return Ok(Self { status, dir_attr, cookieverf: 0, entries: Vec::new(), eof: false });
        }
        let cookieverf = dec.get_u64()?;
        let mut entries = Vec::new();
        while dec.get_bool()? {
            entries.push(EntryPlus3 {
                fileid: dec.get_u64()?,
                name: dec.get_string_max(255)?,
                cookie: dec.get_u64()?,
                attr: Option::decode(dec)?,
                handle: Option::decode(dec)?,
            });
        }
        let eof = dec.get_bool()?;
        Ok(Self { status, dir_attr, cookieverf, entries, eof })
    }
}

// ---------------- FSSTAT / FSINFO / PATHCONF / COMMIT ----------------

/// FSSTAT result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsStatRes {
    /// Status.
    pub status: NfsStat3,
    /// Root attributes.
    pub attr: PostOpAttr,
    /// Total bytes.
    pub tbytes: u64,
    /// Free bytes.
    pub fbytes: u64,
    /// Available bytes.
    pub abytes: u64,
    /// Total file slots.
    pub tfiles: u64,
    /// Free file slots.
    pub ffiles: u64,
}

impl XdrEncode for FsStatRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u64(self.tbytes);
            enc.put_u64(self.fbytes);
            enc.put_u64(self.abytes);
            enc.put_u64(self.tfiles);
            enc.put_u64(self.ffiles);
            enc.put_u64(self.ffiles); // afiles
            enc.put_u32(0); // invarsec
        }
    }
}

impl XdrDecode for FsStatRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let attr = Option::decode(dec)?;
        if status != NfsStat3::Ok {
            return Ok(Self { status, attr, tbytes: 0, fbytes: 0, abytes: 0, tfiles: 0, ffiles: 0 });
        }
        let tbytes = dec.get_u64()?;
        let fbytes = dec.get_u64()?;
        let abytes = dec.get_u64()?;
        let tfiles = dec.get_u64()?;
        let ffiles = dec.get_u64()?;
        let _afiles = dec.get_u64()?;
        let _invarsec = dec.get_u32()?;
        Ok(Self { status, attr, tbytes, fbytes, abytes, tfiles, ffiles })
    }
}

/// FSINFO result (static filesystem parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsInfoRes {
    /// Status.
    pub status: NfsStat3,
    /// Root attributes.
    pub attr: PostOpAttr,
    /// Max READ size.
    pub rtmax: u32,
    /// Preferred READ size.
    pub rtpref: u32,
    /// Max WRITE size.
    pub wtmax: u32,
    /// Preferred WRITE size.
    pub wtpref: u32,
    /// Preferred READDIR size.
    pub dtpref: u32,
    /// Max file size.
    pub maxfilesize: u64,
}

impl XdrEncode for FsInfoRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u32(self.rtmax);
            enc.put_u32(self.rtpref);
            enc.put_u32(1); // rtmult
            enc.put_u32(self.wtmax);
            enc.put_u32(self.wtpref);
            enc.put_u32(1); // wtmult
            enc.put_u32(self.dtpref);
            enc.put_u64(self.maxfilesize);
            NfsTime3 { seconds: 0, nseconds: 1 }.encode(enc); // time_delta
            enc.put_u32(0x1b); // properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
        }
    }
}

impl XdrDecode for FsInfoRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let attr = Option::decode(dec)?;
        if status != NfsStat3::Ok {
            return Ok(Self {
                status,
                attr,
                rtmax: 0,
                rtpref: 0,
                wtmax: 0,
                wtpref: 0,
                dtpref: 0,
                maxfilesize: 0,
            });
        }
        let rtmax = dec.get_u32()?;
        let rtpref = dec.get_u32()?;
        let _rtmult = dec.get_u32()?;
        let wtmax = dec.get_u32()?;
        let wtpref = dec.get_u32()?;
        let _wtmult = dec.get_u32()?;
        let dtpref = dec.get_u32()?;
        let maxfilesize = dec.get_u64()?;
        let _time_delta = NfsTime3::decode(dec)?;
        let _properties = dec.get_u32()?;
        Ok(Self { status, attr, rtmax, rtpref, wtmax, wtpref, dtpref, maxfilesize })
    }
}

/// PATHCONF result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathConfRes {
    /// Status.
    pub status: NfsStat3,
    /// Attributes.
    pub attr: PostOpAttr,
    /// Max hard links.
    pub linkmax: u32,
    /// Max name length.
    pub name_max: u32,
}

impl XdrEncode for PathConfRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.attr.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u32(self.linkmax);
            enc.put_u32(self.name_max);
            enc.put_bool(true); // no_trunc
            enc.put_bool(true); // chown_restricted
            enc.put_bool(false); // case_insensitive
            enc.put_bool(true); // case_preserving
        }
    }
}

impl XdrDecode for PathConfRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let attr = Option::decode(dec)?;
        if status != NfsStat3::Ok {
            return Ok(Self { status, attr, linkmax: 0, name_max: 0 });
        }
        let linkmax = dec.get_u32()?;
        let name_max = dec.get_u32()?;
        for _ in 0..4 {
            let _ = dec.get_bool()?;
        }
        Ok(Self { status, attr, linkmax, name_max })
    }
}

/// COMMIT arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitArgs {
    /// File.
    pub file: Fh3,
    /// Range start.
    pub offset: u64,
    /// Range length (0 = to EOF).
    pub count: u32,
}

impl XdrEncode for CommitArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
    }
}

impl XdrDecode for CommitArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        Ok(Self { file: Fh3::decode(dec)?, offset: dec.get_u64()?, count: dec.get_u32()? })
    }
}

/// COMMIT result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRes {
    /// Status.
    pub status: NfsStat3,
    /// Cache-consistency data.
    pub wcc: WccData,
    /// Write verifier.
    pub verf: u64,
}

impl XdrEncode for CommitRes {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.status.encode(enc);
        self.wcc.encode(enc);
        if self.status == NfsStat3::Ok {
            enc.put_u64(self.verf);
        }
    }
}

impl XdrDecode for CommitRes {
    fn decode(dec: &mut XdrDecoder<'_>) -> XdrResult<Self> {
        let status = NfsStat3::decode(dec)?;
        let wcc = WccData::decode(dec)?;
        let verf = if status == NfsStat3::Ok { dec.get_u64()? } else { 0 };
        Ok(Self { status, wcc, verf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh() -> Fh3 {
        Fh3::from_ino(1, 5)
    }

    fn attr() -> Fattr3 {
        Fattr3 {
            ftype: FType3::Reg,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 10,
            used: 10,
            fsid: 1,
            fileid: 5,
            atime: NfsTime3::default(),
            mtime: NfsTime3::default(),
            ctime: NfsTime3::default(),
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let ra = ReadArgs { file: fh(), offset: 1024, count: 32768 };
        assert_eq!(ReadArgs::from_xdr_bytes(&ra.to_xdr_bytes()).unwrap(), ra);

        let rr = ReadRes {
            status: NfsStat3::Ok,
            attr: Some(attr()),
            count: 3,
            eof: true,
            data: vec![1, 2, 3],
        };
        assert_eq!(ReadRes::from_xdr_bytes(&rr.to_xdr_bytes()).unwrap(), rr);

        let wa = WriteArgs { file: fh(), offset: 0, stable: StableHow::Unstable, data: vec![9; 100] };
        assert_eq!(WriteArgs::from_xdr_bytes(&wa.to_xdr_bytes()).unwrap(), wa);

        let wr = WriteRes {
            status: NfsStat3::Ok,
            wcc: WccData::default(),
            count: 100,
            committed: StableHow::FileSync,
            verf: 77,
        };
        assert_eq!(WriteRes::from_xdr_bytes(&wr.to_xdr_bytes()).unwrap(), wr);
    }

    #[test]
    fn error_arms_omit_ok_fields() {
        let rr = ReadRes {
            status: NfsStat3::Stale,
            attr: None,
            count: 0,
            eof: false,
            data: Vec::new(),
        };
        let bytes = rr.to_xdr_bytes();
        assert_eq!(bytes.len(), 8); // status + attr-absent bool
        assert_eq!(ReadRes::from_xdr_bytes(&bytes).unwrap(), rr);
    }

    #[test]
    fn lookup_roundtrip_both_arms() {
        let ok = LookupRes {
            status: NfsStat3::Ok,
            object: Some(fh()),
            obj_attr: Some(attr()),
            dir_attr: None,
        };
        assert_eq!(LookupRes::from_xdr_bytes(&ok.to_xdr_bytes()).unwrap(), ok);
        let err = LookupRes {
            status: NfsStat3::NoEnt,
            object: None,
            obj_attr: None,
            dir_attr: Some(attr()),
        };
        assert_eq!(LookupRes::from_xdr_bytes(&err.to_xdr_bytes()).unwrap(), err);
    }

    #[test]
    fn create_modes_roundtrip() {
        for how in [
            CreateMode::Unchecked(Sattr3::default()),
            CreateMode::Guarded(Sattr3 { mode: Some(0o600), ..Default::default() }),
            CreateMode::Exclusive(0xdead_beef),
        ] {
            let ca = CreateArgs {
                where_: DirOpArgs3 { dir: fh(), name: "new.txt".into() },
                how: how.clone(),
            };
            assert_eq!(CreateArgs::from_xdr_bytes(&ca.to_xdr_bytes()).unwrap(), ca);
        }
    }

    #[test]
    fn readdir_roundtrip() {
        let res = ReaddirRes {
            status: NfsStat3::Ok,
            dir_attr: Some(attr()),
            cookieverf: 7,
            entries: vec![
                Entry3 { fileid: 1, name: ".".into(), cookie: 1 },
                Entry3 { fileid: 2, name: "data.bin".into(), cookie: 2 },
            ],
            eof: true,
        };
        assert_eq!(ReaddirRes::from_xdr_bytes(&res.to_xdr_bytes()).unwrap(), res);
    }

    #[test]
    fn readdirplus_roundtrip() {
        let res = ReaddirPlusRes {
            status: NfsStat3::Ok,
            dir_attr: None,
            cookieverf: 0,
            entries: vec![EntryPlus3 {
                fileid: 9,
                name: "x".into(),
                cookie: 3,
                attr: Some(attr()),
                handle: Some(fh()),
            }],
            eof: false,
        };
        assert_eq!(ReaddirPlusRes::from_xdr_bytes(&res.to_xdr_bytes()).unwrap(), res);
    }

    #[test]
    fn fsinfo_pathconf_commit_roundtrip() {
        let fi = FsInfoRes {
            status: NfsStat3::Ok,
            attr: Some(attr()),
            rtmax: 32768,
            rtpref: 32768,
            wtmax: 32768,
            wtpref: 32768,
            dtpref: 8192,
            maxfilesize: u64::MAX / 2,
        };
        assert_eq!(FsInfoRes::from_xdr_bytes(&fi.to_xdr_bytes()).unwrap(), fi);

        let pc = PathConfRes { status: NfsStat3::Ok, attr: None, linkmax: 32000, name_max: 255 };
        assert_eq!(PathConfRes::from_xdr_bytes(&pc.to_xdr_bytes()).unwrap(), pc);

        let cr = CommitRes { status: NfsStat3::Ok, wcc: WccData::default(), verf: 3 };
        assert_eq!(CommitRes::from_xdr_bytes(&cr.to_xdr_bytes()).unwrap(), cr);
    }

    #[test]
    fn write_count_mismatch_rejected() {
        let wa = WriteArgs { file: fh(), offset: 0, stable: StableHow::Unstable, data: vec![1; 10] };
        let mut bytes = wa.to_xdr_bytes();
        // Corrupt the count field (it sits right after fh(20 bytes) + offset(8)).
        bytes[28] ^= 0x01;
        assert!(WriteArgs::from_xdr_bytes(&bytes).is_err());
    }
}
