//! The client proxy's namespace cache: everything the session knows
//! about names and files, as opposed to their data blocks.
//!
//! * **attributes / access / lookup / readdir** results are cached in
//!   memory for the session (the session is single-user, so no
//!   cross-client coherence is needed — the paper defers shared-session
//!   consistency to application-tailored protocols);
//! * two calls cover every metadata procedure: [`NameCache::answer`] says
//!   whether a call can be served locally, [`NameCache::apply`] takes a
//!   forwarded call's reply in — its snoops and invalidations;
//! * a directory is **known completely** when this session's MKDIR made
//!   it (it started empty and every name in it since went through this
//!   cache) or when the proxy listed it to EOF
//!   ([`NameCache::listable`], [`NameCache::listed`]); a LOOKUP of a name
//!   absent from it is answered NOENT locally, until a reply shows the
//!   directory changed by a call this session did not make;
//! * every attribute a reply carries enters through one rule,
//!   [`NameCache::observe`]: a file with unflushed write-back data keeps
//!   the proxy's size and mtime, under partial placement a regular
//!   file's size only grows, otherwise the reply wins;
//! * it never answers a mutation it did not make itself, and never READ,
//!   WRITE or COMMIT: those belong to the data path, which reads
//!   attributes through [`NameCache::attr`] and whose
//!   [`BlockStore`](super::blockstore::BlockStore) alone says whether a
//!   file is dirty;
//! * **the namespace log** (DESIGN.md §15): a CREATE or MKDIR of a name
//!   known absent from a directory known completely is made here, under a
//!   minted handle, and shipped later; a REMOVE or RMDIR of a name not
//!   yet shipped cancels it. At the upstream boundary,
//!   [`NameCache::to_server`] makes each minted handle in a call the
//!   server's and [`NameCache::to_mount`] makes each server handle and
//!   fileid in a reply the mount's.

use crate::acl::is_acl_file_name;
use crate::proxy::journal::NameRecord;
use crate::proxy::wire::{decode_reply, encode_reply, success_body, uid_of, Call, Encoded};
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_obs::{Emitter, Hop};
use sgfs_oncrpc::{CallHeader, OpaqueAuth};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;

/// ACCESS3_LOOKUP | ACCESS3_MODIFY | ACCESS3_EXTEND (RFC 1813): search a
/// directory, and change and add to its entries. A listed directory takes
/// logged names only from a caller the server granted all three.
pub(crate) const ADD_NAMES: u32 = 0x02 | 0x04 | 0x08;

/// Opens every minted handle.
const MINTED_TAG: &[u8; 8] = b"sgfsname";
/// A minted handle is the tag, the proxy's nonce and a counter: 24
/// bytes. `sgfs-nfsd` issues 16-byte handles (`Fh3::from_ino`), so none
/// of its handles equals a minted one.
const MINTED_LEN: usize = 24;

/// Whether the proxy minted `fh` for a name it made.
pub(crate) fn is_minted(fh: &Fh3) -> bool {
    fh.0.len() == MINTED_LEN && fh.0.starts_with(MINTED_TAG)
}

/// The fileid the mount knows a minted file by, before and after it
/// ships: unique per handle, with the top bit set, which no `sgfs-vfs`
/// inode number has.
fn minted_fileid(fh: &Fh3) -> u64 {
    let word = |at: usize| u64::from_be_bytes(fh.0[at..at + 8].try_into().expect("8 bytes"));
    1 << 63 | (word(8).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ word(16)) & (u64::MAX >> 1)
}

/// A name the session made locally: the CREATE or MKDIR that makes it
/// on the server, and who asked.
#[derive(Clone)]
pub(crate) struct Entry {
    /// The minted handle the mount knows it by.
    pub(crate) fh: Fh3,
    pub(crate) cred: OpaqueAuth,
    where_: DirOpArgs3,
    /// A MKDIR's, else a CREATE's.
    is_dir: bool,
    attrs: Sattr3,
    /// Whether a call of it left for the server and no reply said the
    /// server refused it: the reply may have been lost, or the process
    /// killed before the journal heard it.
    sent: bool,
}

impl Entry {
    pub(crate) fn where_(&self) -> &DirOpArgs3 {
        &self.where_
    }

    pub(crate) fn is_dir(&self) -> bool {
        self.is_dir
    }

    pub(crate) fn was_sent(&self) -> bool {
        self.sent
    }

    pub(crate) fn proc(&self) -> u32 {
        if self.is_dir {
            procnum::MKDIR
        } else {
            procnum::CREATE
        }
    }

    /// The arguments it ships with. A CREATE always goes GUARDED: a name
    /// another client took in the meantime fails the ship instead of
    /// opening their file.
    pub(crate) fn shipped(&self) -> Box<dyn XdrEncode> {
        let (where_, attrs) = (self.where_.clone(), self.attrs.clone());
        if self.is_dir {
            Box::new(MkdirArgs { where_, attributes: attrs })
        } else {
            Box::new(CreateArgs { where_, how: CreateMode::Guarded(attrs) })
        }
    }

    /// Its journal record: the caller's credential, then the arguments.
    pub(crate) fn record(&self) -> NameRecord {
        let mut args = self.cred.to_xdr_bytes();
        args.extend_from_slice(&self.shipped().to_xdr_bytes());
        NameRecord::Logged { fh: self.fh.clone(), proc: self.proc(), args }
    }

    fn from_record(fh: Fh3, proc: u32, args: &[u8]) -> Option<Self> {
        let mut dec = XdrDecoder::new(args);
        let cred = OpaqueAuth::decode(&mut dec).ok()?;
        let (where_, attrs) = match proc {
            procnum::MKDIR => MkdirArgs::decode(&mut dec).map(|a| (a.where_, a.attributes)).ok()?,
            _ => match CreateArgs::decode(&mut dec).ok()? {
                CreateArgs { where_, how: CreateMode::Guarded(attrs) } => (where_, attrs),
                _ => return None,
            },
        };
        Some(Entry { fh, cred, where_, is_dir: proc == procnum::MKDIR, attrs, sent: false })
    }
}

/// A map keyed by (directory, name), held as directory → name → value
/// so that a lookup borrows the call's handle and name instead of
/// building a key of copies.
struct ByName<V>(HashMap<Fh3, HashMap<String, V>>);

impl<V> Default for ByName<V> {
    fn default() -> Self {
        Self(HashMap::new())
    }
}

impl<V> ByName<V> {
    fn get(&self, w: &DirOpArgs3) -> Option<&V> {
        self.0.get(&w.dir)?.get(&w.name)
    }

    /// Set `w`'s value; the one it had.
    fn insert(&mut self, w: &DirOpArgs3, v: V) -> Option<V> {
        match self.0.get_mut(&w.dir) {
            Some(names) => names.insert(w.name.clone(), v),
            None => self.0.entry(w.dir.clone()).or_default().insert(w.name.clone(), v),
        }
    }

    fn remove(&mut self, dir: &Fh3, name: &str) -> Option<V> {
        let names = self.0.get_mut(dir)?;
        let v = names.remove(name)?;
        if names.is_empty() {
            self.0.remove(dir);
        }
        Some(v)
    }
}

/// The namespace log: the entries not yet shipped, in the order they were
/// made, found by handle, by name and by directory.
#[derive(Default)]
struct Log {
    entries: BTreeMap<u64, Entry>,
    next: u64,
    seq_of: HashMap<Fh3, u64>,
    by_name: ByName<u64>,
    in_dir: HashMap<Fh3, BTreeSet<u64>>,
}

impl Log {
    fn push(&mut self, e: Entry) {
        let (seq, w) = (self.next, e.where_());
        self.next += 1;
        self.seq_of.insert(e.fh.clone(), seq);
        self.by_name.insert(w, seq);
        match self.in_dir.get_mut(&w.dir) {
            Some(seqs) => {
                seqs.insert(seq);
            }
            None => {
                self.in_dir.insert(w.dir.clone(), BTreeSet::from([seq]));
            }
        }
        self.entries.insert(seq, e);
    }

    fn remove(&mut self, fh: &Fh3) -> Option<Entry> {
        let seq = self.seq_of.remove(fh)?;
        let e = self.entries.remove(&seq)?;
        let w = e.where_();
        self.by_name.remove(&w.dir, &w.name);
        if let Some(dir) = self.in_dir.get_mut(&w.dir) {
            dir.remove(&seq);
            if dir.is_empty() {
                self.in_dir.remove(&w.dir);
            }
        }
        Some(e)
    }

    fn at(&self, w: &DirOpArgs3) -> Option<&Entry> {
        self.entries.get(self.by_name.get(w)?)
    }

    /// The entries made in `dir`, in the order made.
    fn in_dir(&self, dir: &Fh3) -> impl Iterator<Item = &Entry> {
        self.in_dir.get(dir).into_iter().flatten().filter_map(|seq| self.entries.get(seq))
    }
}

/// (directory, name) → the file it reaches, indexed both ways: a file's
/// own names are found without a scan. A file has one name but for its
/// hard links, so its names are a short list.
#[derive(Default)]
struct Names {
    to: ByName<Fh3>,
    of: HashMap<Fh3, Vec<(Fh3, String)>>,
}

impl Names {
    fn get(&self, w: &DirOpArgs3) -> Option<&Fh3> {
        self.to.get(w)
    }

    /// Name `w` `fh`; what it named before.
    fn insert(&mut self, w: &DirOpArgs3, fh: Fh3) -> Option<Fh3> {
        let old = self.to.insert(w, fh.clone());
        if old.as_ref() == Some(&fh) {
            return old;
        }
        if let Some(old) = &old {
            self.unname(old, w);
        }
        // `w` did not name `fh`: it is not in its list yet.
        self.of.entry(fh).or_default().push((w.dir.clone(), w.name.clone()));
        old
    }

    fn remove(&mut self, w: &DirOpArgs3) -> Option<Fh3> {
        let fh = self.to.remove(&w.dir, &w.name)?;
        self.unname(&fh, w);
        Some(fh)
    }

    fn unname(&mut self, fh: &Fh3, w: &DirOpArgs3) {
        if let Some(keys) = self.of.get_mut(fh) {
            keys.retain(|(dir, name)| (dir, name) != (&w.dir, &w.name));
            if keys.is_empty() {
                self.of.remove(fh);
            }
        }
    }

    /// Forget every name of `fh`.
    fn forget(&mut self, fh: &Fh3) {
        for (dir, name) in self.of.remove(fh).into_iter().flatten() {
            self.to.remove(&dir, &name);
        }
    }

    /// One name of `fh`, as (directory, name).
    fn name_of(&self, fh: &Fh3) -> Option<&(Fh3, String)> {
        self.of.get(fh)?.first()
    }
}

/// A directory known completely; by default, one the session made.
#[derive(Default)]
struct Known {
    /// Every name in it. Kept from reply statuses alone, never from
    /// `names`, which may forget a name that still exists: here a missing
    /// name means "absent", there "ask".
    names: HashSet<String>,
    /// The server's mtime and ctime of it as of the last change this
    /// session accounted for; `None` until a reply shows them.
    stamp: Option<(NfsTime3, NfsTime3)>,
    /// Whether a listing made it known rather than the session's MKDIR:
    /// then a caller's right to add names to it is the server's ACCESS
    /// verdict, not its mode bits.
    listed: bool,
}

fn stamp(attr: &Fattr3) -> (NfsTime3, NfsTime3) {
    (attr.mtime, attr.ctime)
}

/// What the session knows about names and files.
pub(crate) struct NameCache {
    attrs: HashMap<Fh3, Fattr3>,
    /// Per file, per uid: (mask of bits ever checked upstream, granted
    /// bits within that mask). A request is only served from cache when
    /// every bit it asks about has actually been checked — granted bits
    /// say nothing about bits the server was never asked to evaluate.
    access: HashMap<Fh3, HashMap<u32, (u32, u32)>>,
    names: Names,
    /// The directories known completely.
    complete: HashMap<Fh3, Known>,
    /// Directories a listing found too large to list within its budget:
    /// never listed again.
    unlistable: HashSet<Fh3>,
    /// Directories that stopped being known while holding logged names,
    /// which must ship now ([`take_expired`](Self::take_expired)).
    expired: Vec<Fh3>,
    /// Raw READDIR/READDIRPLUS result bodies keyed (dir, cookie, plus?).
    readdirs: HashMap<(Fh3, u64, bool), Vec<u8>>,
    /// Partial placement: a member lacking a file's final block
    /// undershoots its size.
    partial: bool,
    /// Monotonic synthesized mtime for locally acknowledged writes.
    synth_mtime: u64,
    /// The namespace log: names made here and not yet shipped.
    log: Log,
    /// Every shipped minted handle that still has a name: its server
    /// handle and, once a reply has shown it, its server fileid. A file's
    /// entry goes with its last link.
    server_of: HashMap<Fh3, (Fh3, Option<u64>)>,
    /// The same, back: server handle → minted handle, and server fileid →
    /// the fileid the mount knows.
    alias_of: HashMap<Fh3, Fh3>,
    fileid_of: HashMap<u64, u64>,
    /// What the next minted handle is made of.
    nonce: u64,
    minted: u64,
    stats: Emitter,
}

impl NameCache {
    pub(crate) fn new(partial: bool, stats: Emitter) -> Self {
        Self {
            attrs: HashMap::new(),
            access: HashMap::new(),
            names: Names::default(),
            complete: HashMap::new(),
            unlistable: HashSet::new(),
            expired: Vec::new(),
            readdirs: HashMap::new(),
            partial,
            synth_mtime: 1,
            log: Log::default(),
            server_of: HashMap::new(),
            alias_of: HashMap::new(),
            fileid_of: HashMap::new(),
            nonce: rand::random(),
            minted: 0,
            stats,
        }
    }

    /// Take in the namespace log a journal recovered: the server handle
    /// of every minted one, and the entries still to ship.
    pub(crate) fn recover(&mut self, names: Vec<NameRecord>) {
        for rec in names {
            match rec {
                NameRecord::Shipped { fh, server, fileid } => self.map(&fh, server, fileid),
                NameRecord::Logged { fh, proc, args } => {
                    if let Some(e) = Entry::from_record(fh, proc, &args) {
                        self.log.push(e);
                    }
                }
                NameRecord::Sent { fh } => self.sent(&fh, true),
                NameRecord::Refused { .. } | NameRecord::Cancelled { .. } => {}
            }
        }
    }

    /// The cached attributes of `fh`.
    pub(crate) fn attr(&self, fh: &Fh3) -> Option<Fattr3> {
        self.attrs.get(fh).cloned()
    }

    /// The reply to `call` (xid `xid`, procedure `proc`) when the cache
    /// can give it, counting the hit or miss of every call it could have
    /// answered; a call the proxy just `listed` a directory for counts as
    /// a miss, answered or not: it cost a round trip. A name or an ACCESS
    /// verdict is answered only with its file's attributes in hand, an
    /// absent name only with its directory's: the reply carries them.
    pub(crate) fn answer(
        &self,
        xid: u32,
        proc: u32,
        call: &Call,
        listed: bool,
    ) -> Option<Vec<u8>> {
        let reply = match call {
            Call::GetAttr(fh) => self.attr(fh).map(|attr| {
                encode_reply(xid, &GetAttrRes { status: NfsStat3::Ok, attr: Some(attr) })
            }),
            Call::Access(a, uid) => match self.access.get(&a.object).and_then(|by| by.get(uid)) {
                // Unchecked bits fall through to the server instead of
                // reading as denied.
                Some(&(checked, granted)) if a.access & !checked == 0 => {
                    self.attr(&a.object).map(|attr| {
                        let access = granted & a.access;
                        let res = AccessRes { status: NfsStat3::Ok, obj_attr: Some(attr), access };
                        encode_reply(xid, &res)
                    })
                }
                _ => None,
            },
            Call::Lookup(a) => match self.names.get(a) {
                Some(fh) => self.attr(fh).map(|attr| {
                    let res = LookupRes {
                        status: NfsStat3::Ok,
                        object: Some(fh.clone()),
                        obj_attr: Some(attr),
                        dir_attr: None,
                    };
                    encode_reply(xid, &res)
                }),
                None => self.absent(a).map(|attr| {
                    let res = LookupRes {
                        status: NfsStat3::NoEnt,
                        object: None,
                        obj_attr: None,
                        dir_attr: Some(attr),
                    };
                    encode_reply(xid, &res)
                }),
            },
            Call::Readdir(dir, cookie, plus) => {
                let body = self.readdirs.get(&(dir.clone(), *cookie, *plus));
                body.map(|body| encode_reply(xid, &Encoded(body)))
            }
            _ => return None,
        };
        let hit = reply.is_some() && !listed;
        self.stats.emit(if hit { Hop::CacheHit } else { Hop::CacheMiss }, xid, proc, 0);
        reply
    }

    /// Take in the `reply` the server gave to `call` (already under the
    /// mount's handles, see [`to_mount`](Self::to_mount)): drop what the
    /// call made stale, learn what the reply shows. `dirty` says whether
    /// the proxy holds unflushed data of a file. A reply is re-encoded only
    /// where it hands on the cache's attributes instead of the server's:
    /// those of a dirty file, of a directory holding logged names, or of a
    /// minted file (see [`take_in`](Self::take_in)). Returns the reply to
    /// hand on and the file, if any, whose last link the server removed:
    /// nothing of it is kept here, and the caller drops its blocks (the
    /// paper's temporary-file optimization).
    pub(crate) fn apply(
        &mut self,
        call: &Call,
        reply: Vec<u8>,
        dirty: impl Fn(&Fh3) -> bool,
    ) -> (Vec<u8>, Option<Fh3>) {
        let xid = sgfs_obs::peek_xid(&reply);
        let mut gone = None;
        let patched = match call {
            Call::GetAttr(fh) => decode_reply::<GetAttrRes>(&reply).ok().and_then(|mut res| {
                let held = self.take_in(fh, &mut res.attr, dirty(fh));
                held.then(|| encode_reply(xid, &res))
            }),
            Call::Access(a, uid) => decode_reply::<AccessRes>(&reply).ok().and_then(|mut res| {
                if res.status == NfsStat3::Ok {
                    // Remember which bits this check covered and refresh
                    // the granted state within that mask only.
                    let by_uid = self.access.entry(a.object.clone()).or_default();
                    let entry = by_uid.entry(*uid).or_insert((0, 0));
                    entry.1 = (entry.1 & !a.access) | res.access;
                    entry.0 |= a.access;
                }
                let held = self.take_in(&a.object, &mut res.obj_attr, dirty(&a.object));
                held.then(|| encode_reply(xid, &res))
            }),
            Call::Lookup(a) => {
                let res = decode_reply::<LookupRes>(&reply).ok();
                // The server's word on a known directory's name must be
                // the set's; if it is not, the set is not trusted again.
                if let Some(known) = self.complete.get(&a.dir) {
                    let agrees = match res.as_ref().map(|r| r.status) {
                        Some(NfsStat3::Ok) => known.names.contains(&a.name) || is_dot(&a.name),
                        Some(NfsStat3::NoEnt) => !known.names.contains(&a.name),
                        Some(_) => true,
                        None => false,
                    };
                    if !agrees {
                        self.forget_dir(&a.dir);
                    }
                }
                if let Some(attr) = res.as_ref().and_then(|r| r.dir_attr.as_ref()) {
                    self.check_stamp(&a.dir, attr);
                }
                res.and_then(|mut res| {
                    let fh = res.object.clone()?;
                    let held = self.take_in(&fh, &mut res.obj_attr, dirty(&fh));
                    // "." and ".." are the server's to resolve: a moved
                    // directory has a new "..".
                    if !is_dot(&a.name) {
                        self.names.insert(a, fh);
                    }
                    held.then(|| encode_reply(xid, &res))
                })
            }
            Call::Readdir(dir, cookie, plus) => {
                if let Some(body) = success_body(&reply) {
                    self.readdirs.insert((dir.clone(), *cookie, *plus), body.to_vec());
                    // The entries' names and attributes are cached; the
                    // listing itself is handed on as the server wrote it.
                    let res = plus.then(|| ReaddirPlusRes::from_xdr_bytes(body).ok()).flatten();
                    if let Some(res) = res {
                        self.snoop_listing(dir, &res, &dirty);
                    }
                }
                None
            }
            // A SETATTR renames nothing. A clean file's attributes are
            // dropped (a truncation shrinks what partial placement would
            // only let grow); a dirty one takes the new mode and owner.
            Call::SetAttr(a) => {
                let fh = &a.object;
                self.drop_access(fh);
                let res = decode_reply::<WccRes>(&reply).ok();
                self.restamp(fh, res.as_ref().and_then(|r| r.wcc.before.as_ref()));
                if !dirty(fh) {
                    self.attrs.remove(fh);
                } else if let Some(WccRes { wcc: WccData { after: Some(attr), .. }, .. }) = &res {
                    self.observe(fh, attr.clone(), true);
                }
                None
            }
            Call::Create(w, _) | Call::Mkdir(w, _) => {
                self.invalidate_dir(&w.dir);
                let res = decode_reply::<CreateRes>(&reply).ok();
                let made =
                    res.as_ref().filter(|r| r.status == NfsStat3::Ok).and_then(|r| r.obj.clone());
                // An OK without a handle leaves the directory in doubt. A
                // directory made here starts empty, and every name made
                // in it later passes through this cache.
                let status = res.as_ref().map(|r| r.status);
                self.learn(w, status.filter(|s| *s != NfsStat3::Ok || made.is_some()), true);
                if let (Some(fh), Call::Mkdir(..)) = (made, call) {
                    self.complete.insert(fh, Known::default());
                }
                res.and_then(|mut res| {
                    // The directory's fresh attributes serve the kernel
                    // client's next revalidation locally.
                    let mut held = self.take_in_wcc(&w.dir, &mut res.dir_wcc);
                    if let Some(fh) = res.obj.clone() {
                        // An UNCHECKED CREATE of an existing name returns
                        // that file, which may be dirty, with the mode it
                        // was just given.
                        self.drop_access(&fh);
                        held |= self.take_in(&fh, &mut res.obj_attr, dirty(&fh));
                        self.names.insert(w, fh);
                    }
                    held.then(|| encode_reply(xid, &res))
                })
            }
            // Only what the server did is learned: a refused REMOVE or
            // RENAME leaves every name, and the write-back data owed to
            // the files they reach.
            Call::Remove(w, _) => {
                self.invalidate_dir(&w.dir);
                let res = decode_reply::<WccRes>(&reply).ok();
                self.learn(w, res.as_ref().map(|r| r.status), false);
                res.and_then(|mut res| {
                    if res.status == NfsStat3::Ok {
                        if let Some(fh) = self.names.remove(w) {
                            gone = self.unlink(fh);
                        }
                    }
                    let held = self.take_in_wcc(&w.dir, &mut res.wcc);
                    held.then(|| encode_reply(xid, &res))
                })
            }
            Call::Rename(a) => {
                let (from, to) = (&a.from, &a.to);
                self.invalidate_dir(&from.dir);
                self.invalidate_dir(&to.dir);
                let res = decode_reply::<RenameRes>(&reply).ok();
                let status = res.as_ref().map(|r| r.status);
                let ok = status == Some(NfsStat3::Ok);
                // A RENAME onto another link of the same file leaves both
                // names: the source is known gone only when the target
                // was known absent.
                let free = self.complete.get(&to.dir).is_some_and(|k| !k.names.contains(&to.name));
                self.learn(from, status.filter(|_| !ok || free), false);
                self.learn(to, status, true);
                res.and_then(|mut res| {
                    if res.status == NfsStat3::Ok {
                        let moved = self.names.remove(from);
                        let replaced = match &moved {
                            Some(fh) => self.names.insert(to, fh.clone()),
                            None => self.names.remove(to),
                        };
                        match replaced {
                            // Two names of one file: RENAME does nothing.
                            Some(fh) if moved.as_ref() == Some(&fh) => {
                                self.names.insert(from, fh);
                            }
                            // The server unlinked what the destination
                            // name used to reach.
                            Some(fh) => gone = self.unlink(fh),
                            None => {}
                        }
                        if let Some(fh) = &moved {
                            // A directory moved to another parent lists a
                            // new "..", and the move is its change too.
                            self.readdirs.retain(|(d, _, _), _| d != fh);
                            self.restamp(fh, None);
                        }
                    }
                    // Both stamps move before either directory's new
                    // attributes are taken in: they may be one directory.
                    self.restamp(&from.dir, res.from_wcc.before.as_ref());
                    self.restamp(&to.dir, res.to_wcc.before.as_ref());
                    let held = self.take_in(&from.dir, &mut res.from_wcc.after, false)
                        | self.take_in(&to.dir, &mut res.to_wcc.after, false);
                    held.then(|| encode_reply(xid, &res))
                })
            }
            Call::Link(a) => {
                self.invalidate_dir(&a.link.dir);
                let res = decode_reply::<LinkRes>(&reply).ok();
                self.learn(&a.link, res.as_ref().map(|r| r.status), true);
                res.and_then(|mut res| {
                    // The link count is what `unlink` decides by.
                    let held = self.take_in_wcc(&a.link.dir, &mut res.dir_wcc)
                        | self.take_in(&a.file, &mut res.attr, dirty(&a.file));
                    if res.status == NfsStat3::Ok {
                        self.names.insert(&a.link, a.file.clone());
                    }
                    held.then(|| encode_reply(xid, &res))
                })
            }
            Call::Other => None,
        };
        (patched.unwrap_or(reply), gone)
    }

    /// What a READDIRPLUS reply of `dir` shows: the name and attributes
    /// of every entry — a file the mount reaches by a listed handle is
    /// known by its name, so a REMOVE of that name drops what the proxy
    /// holds of it — and the attributes of `dir` itself, which a known
    /// directory is checked by.
    fn snoop_listing(&mut self, dir: &Fh3, res: &ReaddirPlusRes, dirty: &impl Fn(&Fh3) -> bool) {
        if let Some(attr) = &res.dir_attr {
            self.check_stamp(dir, attr);
        }
        for e in &res.entries {
            let Some(fh) = &e.handle else { continue };
            if !is_dot(&e.name) {
                let w = DirOpArgs3 { dir: dir.clone(), name: e.name.clone() };
                self.names.insert(&w, fh.clone());
            }
            if let Some(attr) = &e.attr {
                self.observe(fh, attr.clone(), dirty(fh));
            }
        }
    }

    /// The directory to list before `call` ([`listed`](Self::listed)): a
    /// LOOKUP the cache cannot answer, or a CREATE or MKDIR, in a directory
    /// not known completely that holds no logged name and that no listing
    /// found too large. A dot or an ACL file name is the server's to
    /// resolve, listed or not.
    pub(crate) fn listable(&self, call: &Call) -> Option<Fh3> {
        let w = match call {
            Call::Lookup(w) if self.names.get(w).is_some_and(|fh| self.attrs.contains_key(fh)) => {
                return None
            }
            Call::Lookup(w) | Call::Create(w, Some(_)) | Call::Mkdir(w, _) => w,
            _ => return None,
        };
        let skip = is_dot(&w.name)
            || is_acl_file_name(&w.name)
            || self.complete.contains_key(&w.dir)
            || self.unlistable.contains(&w.dir)
            || self.holds_logged(&w.dir);
        (!skip).then(|| w.dir.clone())
    }

    /// Take in the listing the proxy made of `dir`, its READDIRPLUS
    /// batches in cookie order (already under the mount's handles). Every
    /// entry's name and attributes enter as a forwarded READDIRPLUS's do. A
    /// listing that read to EOF, with `dir`'s attributes the same in every
    /// batch, leaves `dir` known completely from then on,
    /// stamped with those attributes; one that did not (too large for its
    /// budget, or refused) leaves `dir` unknown for good.
    pub(crate) fn listed(
        &mut self,
        dir: &Fh3,
        batches: &[ReaddirPlusRes],
        dirty: impl Fn(&Fh3) -> bool,
    ) {
        // A listing cached before is older than this one.
        self.readdirs.retain(|(d, _, _), _| d != dir);
        for res in batches {
            self.snoop_listing(dir, res, &dirty);
        }
        let read = batches.iter().all(|r| r.status == NfsStat3::Ok);
        if !read || !batches.last().is_some_and(|r| r.eof) {
            self.unlistable.insert(dir.clone());
            return;
        }
        let Some(attr) = batches[0].dir_attr.clone() else { return };
        if batches.iter().any(|r| r.dir_attr.as_ref().map(stamp) != Some(stamp(&attr))) {
            return; // changed while listed: the names may be of two states
        }
        let at = stamp(&attr);
        self.observe(dir, attr, false);
        let entries = batches.iter().flat_map(|r| &r.entries);
        let names = entries.filter(|e| !is_dot(&e.name)).map(|e| e.name.clone()).collect();
        self.complete.insert(dir.clone(), Known { names, stamp: Some(at), listed: true });
    }

    /// Hand a reply the server gave to a `proc` call on as the mount
    /// knows the files it names: a server handle with a minted alias
    /// becomes the alias, and so does the fileid of a shipped minted file.
    /// The one translation point for replies, as
    /// [`to_server`](Self::to_server) is for calls: a reply that names no
    /// shipped file is handed on as it came.
    pub(crate) fn to_mount(&self, proc: u32, reply: Vec<u8>) -> Vec<u8> {
        fn swap<T: XdrDecode + XdrEncode + Aliased>(
            cache: &NameCache,
            reply: &[u8],
        ) -> Option<Vec<u8>> {
            let mut res = decode_reply::<T>(reply).ok()?;
            res.alias(cache).then(|| encode_reply(sgfs_obs::peek_xid(reply), &res))
        }
        if self.server_of.is_empty() {
            return reply;
        }
        let swapped = match proc {
            procnum::GETATTR => swap::<GetAttrRes>(self, &reply),
            procnum::SETATTR | procnum::REMOVE | procnum::RMDIR => swap::<WccRes>(self, &reply),
            procnum::LOOKUP => swap::<LookupRes>(self, &reply),
            procnum::ACCESS => swap::<AccessRes>(self, &reply),
            procnum::READLINK => swap::<ReadlinkRes>(self, &reply),
            procnum::READ => swap::<ReadRes>(self, &reply),
            procnum::WRITE => swap::<WriteRes>(self, &reply),
            procnum::CREATE | procnum::MKDIR | procnum::SYMLINK | procnum::MKNOD => {
                swap::<CreateRes>(self, &reply)
            }
            procnum::RENAME => swap::<RenameRes>(self, &reply),
            procnum::LINK => swap::<LinkRes>(self, &reply),
            procnum::READDIR => swap::<ReaddirRes>(self, &reply),
            procnum::READDIRPLUS => swap::<ReaddirPlusRes>(self, &reply),
            procnum::FSSTAT => swap::<FsStatRes>(self, &reply),
            procnum::FSINFO => swap::<FsInfoRes>(self, &reply),
            procnum::PATHCONF => swap::<PathConfRes>(self, &reply),
            procnum::COMMIT => swap::<CommitRes>(self, &reply),
            _ => None,
        };
        swapped.unwrap_or(reply)
    }

    /// The one rule every attribute a reply carries is cached by. A known
    /// directory whose mtime or ctime moved stops being known
    /// ([`check_stamp`](Self::check_stamp)). A minted file keeps the
    /// fileid the mount knows it by. A directory
    /// holding logged entries keeps what the log made of it — the server
    /// has not seen them. A `dirty` file keeps the proxy's size and mtime
    /// — the server has not seen its write-back data — and takes the rest.
    /// Under partial placement a regular file's size only grows: a member
    /// lacking the final block undershoots it (an explicit truncation
    /// drops the attributes instead). Otherwise the reply wins. Returns
    /// what is cached now.
    pub(crate) fn observe(&mut self, fh: &Fh3, mut attr: Fattr3, dirty: bool) -> Fattr3 {
        self.check_stamp(fh, &attr);
        if is_minted(fh) {
            let id = minted_fileid(fh);
            if attr.fileid != id {
                // The server's fileid for it, learned here when the ship's
                // reply carried no attributes.
                match self.server_of.get(fh) {
                    Some((server, known)) if *known != Some(attr.fileid) => {
                        self.map(fh, server.clone(), Some(attr.fileid));
                    }
                    _ => {}
                }
                attr.fileid = id;
            }
        }
        if let Some(prev) = self.attrs.get(fh) {
            if self.holds_logged(fh) {
                return prev.clone();
            }
            if dirty {
                (attr.size, attr.mtime) = (prev.size, prev.mtime);
            } else if self.partial && attr.ftype == FType3::Reg {
                attr.size = attr.size.max(prev.size);
            }
        }
        self.attrs.insert(fh.clone(), attr.clone());
        attr
    }

    /// A WRITE ending at `end` was absorbed locally: grow the size and
    /// move the mtime on. `None` when `fh`'s attributes are unknown.
    pub(crate) fn wrote(&mut self, fh: &Fh3, end: u64) -> Option<Fattr3> {
        let attr = self.attrs.get_mut(fh)?;
        self.synth_mtime += 1;
        attr.size = attr.size.max(end);
        attr.mtime = NfsTime3::from_nanos(attr.mtime.as_nanos() + self.synth_mtime);
        Some(attr.clone())
    }

    /// The call a logged entry would make, when `call` can be made here:
    /// an UNCHECKED or GUARDED CREATE or a MKDIR, of a name `sgfs-vfs`
    /// accepts, known absent from a directory known completely, where the
    /// caller may add it: in a directory the session made, its cached
    /// mode grants its owner write and search; in a listed one, the
    /// server's cached ACCESS verdict for the caller grants [`ADD_NAMES`]
    /// (the server maps the caller to its own uid, and may apply a
    /// per-file ACL). Its attributes set a mode and at most a size: an
    /// owner, a group or a time is the server's to check.
    pub(crate) fn loggable(&mut self, call: &Call, cred: &OpaqueAuth) -> Option<Entry> {
        let (w, attrs) = match call {
            Call::Create(w, Some(CreateMode::Unchecked(s) | CreateMode::Guarded(s))) => (w, s),
            Call::Mkdir(w, s) => (w, s),
            _ => return None,
        };
        let plain = attrs.mode.is_some()
            && (attrs.uid, attrs.gid, attrs.atime, attrs.mtime) == (None, None, None, None);
        let dir = self.absent(w)?;
        let may_add = match self.complete[&w.dir].listed {
            true => {
                let verdict = self.access.get(&w.dir).and_then(|by| by.get(&uid_of(cred)));
                verdict.is_some_and(|&(checked, given)| checked & given & ADD_NAMES == ADD_NAMES)
            }
            false => dir.mode & 0o300 == 0o300,
        };
        if !plain || !may_add || sgfs_vfs::Vfs::check_name(&w.name).is_err() {
            return None;
        }
        self.minted += 1;
        let mut fh = MINTED_TAG.to_vec();
        fh.extend_from_slice(&self.nonce.to_be_bytes());
        fh.extend_from_slice(&self.minted.to_be_bytes());
        let is_dir = matches!(call, Call::Mkdir(..));
        let (where_, attrs) = (w.clone(), attrs.clone());
        Some(Entry { fh: Fh3(fh), cred: cred.clone(), where_, is_dir, attrs, sent: false })
    }

    /// Make `entry` here and return its reply: the minted handle, the
    /// attributes the parent's owner, group and filesystem and the call's
    /// mode and size give it, and the parent's attributes moved on.
    pub(crate) fn log(&mut self, xid: u32, entry: Entry) -> Vec<u8> {
        let (w, is_dir) = (entry.where_.clone(), entry.is_dir);
        let parent = self.moved_on(&w.dir, if is_dir { 1 } else { 0 });
        let parent = parent.expect("a logged name's directory has its attributes cached");
        let size = if is_dir { 0 } else { entry.attrs.size.unwrap_or(0) };
        let attr = Fattr3 {
            ftype: if is_dir { FType3::Dir } else { FType3::Reg },
            mode: entry.attrs.mode.unwrap_or(0) & 0o7777,
            nlink: if is_dir { 2 } else { 1 },
            uid: parent.uid,
            gid: parent.gid,
            size,
            used: size,
            fsid: parent.fsid,
            fileid: minted_fileid(&entry.fh),
            atime: parent.mtime,
            mtime: parent.mtime,
            ctime: parent.mtime,
        };
        self.learn(&w, Some(NfsStat3::Ok), true);
        self.names.insert(&w, entry.fh.clone());
        self.attrs.insert(entry.fh.clone(), attr.clone());
        if is_dir {
            self.complete.insert(entry.fh.clone(), Known::default());
        }
        let res = CreateRes {
            status: NfsStat3::Ok,
            obj: Some(entry.fh.clone()),
            obj_attr: Some(attr),
            dir_wcc: WccData { before: None, after: Some(parent) },
        };
        self.log.push(entry);
        encode_reply(xid, &res)
    }

    /// The logged entry a REMOVE or RMDIR `call` cancels: one of its kind
    /// that has not shipped and holds no entry of its own.
    pub(crate) fn cancellable(&self, call: &Call) -> Option<Fh3> {
        let Call::Remove(w, rmdir) = call else { return None };
        let entry = self.log.at(w)?;
        let ok = entry.is_dir == *rmdir && !self.holds_logged(&entry.fh);
        ok.then(|| entry.fh.clone())
    }

    /// Cancel the logged entry `fh`: the server never hears of it. Returns
    /// the REMOVE or RMDIR reply, the parent's attributes moved on.
    pub(crate) fn cancel(&mut self, xid: u32, fh: &Fh3) -> Vec<u8> {
        let entry = self.log.remove(fh).expect("cancellable");
        let w = entry.where_();
        self.names.remove(w);
        self.learn(w, Some(NfsStat3::Ok), false);
        self.unlink(fh.clone());
        let parent = self.moved_on(&w.dir, if entry.is_dir { -1 } else { 0 });
        encode_reply(
            xid,
            &WccRes { status: NfsStat3::Ok, wcc: WccData { before: None, after: parent } },
        )
    }

    /// A name in `dir` was made or removed here: its listings are stale,
    /// and its attributes move on as the server's would (a new mtime and
    /// ctime, `links` more subdirectories). What they are now.
    fn moved_on(&mut self, dir: &Fh3, links: i32) -> Option<Fattr3> {
        self.readdirs.retain(|(d, _, _), _| d != dir);
        self.synth_mtime += 1;
        let attr = self.attrs.get_mut(dir)?;
        attr.mtime = NfsTime3::from_nanos(attr.mtime.as_nanos() + self.synth_mtime);
        attr.ctime = attr.mtime;
        attr.nlink = attr.nlink.saturating_add_signed(links);
        Some(attr.clone())
    }

    /// The logged entries `call` must find on the server when it gets
    /// there (a call naming a minted handle needs that handle too — see
    /// [`unshipped_in`](Self::unshipped_in)): a LOOKUP needs the entry it
    /// names; a call that lists a directory or changes its entries — a
    /// READDIR(PLUS), CREATE, MKDIR, REMOVE, RMDIR, RENAME or LINK — needs
    /// every entry the directory holds, as do a SETATTR of a directory and
    /// a REMOVE, RMDIR or RENAME of one.
    pub(crate) fn barrier(&self, call: &Call) -> Vec<Fh3> {
        if self.log.entries.is_empty() {
            return Vec::new();
        }
        let object = |w: &DirOpArgs3| self.names.get(w);
        let (mut at, mut dirs): (Vec<&DirOpArgs3>, Vec<&Fh3>) = (Vec::new(), Vec::new());
        match call {
            Call::Lookup(w) => at.push(w),
            Call::Create(w, _) | Call::Mkdir(w, _) => dirs.push(&w.dir),
            Call::Remove(w, _) => {
                dirs.push(&w.dir);
                dirs.extend(object(w));
            }
            Call::Readdir(dir, _, _) => dirs.push(dir),
            Call::SetAttr(a) => dirs.push(&a.object),
            Call::Rename(a) => {
                at.extend([&a.from, &a.to]);
                dirs.extend([&a.from.dir, &a.to.dir]);
                dirs.extend(object(&a.from).into_iter().chain(object(&a.to)));
            }
            Call::Link(a) => {
                at.push(&a.link);
                dirs.push(&a.link.dir);
            }
            _ => {}
        }
        let named = at.into_iter().filter_map(|w| self.log.at(w));
        let listed = dirs.into_iter().flat_map(|dir| self.log.in_dir(dir));
        named.chain(listed).map(|e| e.fh.clone()).collect()
    }

    /// The logged entries a call `record` names by their minted handles.
    pub(crate) fn unshipped_in(&self, record: &[u8]) -> Vec<Fh3> {
        if self.log.entries.is_empty() {
            return Vec::new();
        }
        let (_, handles) = handles_in(record);
        handles.into_iter().map(|(_, fh)| fh).filter(|fh| self.is_logged(fh)).collect()
    }

    /// The one translation point at the upstream boundary: `record` with
    /// each shipped minted handle swapped for the server's, or `None` when
    /// it names none. A session that never logged re-encodes nothing.
    pub(crate) fn to_server(&self, record: &[u8]) -> Option<Vec<u8>> {
        if self.server_of.is_empty() {
            return None;
        }
        let (at, handles) = handles_in(record);
        let mut out = Vec::new();
        let mut copied = 0;
        for (span, fh) in handles {
            if let Some((server, _)) = self.server_of.get(&fh) {
                out.extend_from_slice(&record[copied..at + span.start]);
                out.extend_from_slice(&server.to_xdr_bytes());
                copied = at + span.end;
            }
        }
        if copied == 0 {
            return None;
        }
        out.extend_from_slice(&record[copied..]);
        Some(out)
    }

    /// Whether `fh` is a logged entry that has not shipped.
    pub(crate) fn is_logged(&self, fh: &Fh3) -> bool {
        self.log.seq_of.contains_key(fh)
    }

    /// Every logged entry, in the order made.
    pub(crate) fn logged(&self) -> Vec<Fh3> {
        self.log.entries.values().map(|e| e.fh.clone()).collect()
    }

    /// Whether a logged entry lives in directory `dir`.
    fn holds_logged(&self, dir: &Fh3) -> bool {
        self.log.in_dir.contains_key(dir)
    }

    /// The entries `due` and every logged directory above them, by
    /// dependency level: a parent's level before its children's, each in
    /// log order.
    pub(crate) fn ship_plan(&self, due: &[Fh3]) -> Vec<Vec<Entry>> {
        // Log position → depth below the first unlogged directory.
        let mut wanted: BTreeMap<u64, usize> = BTreeMap::new();
        for fh in due {
            let mut chain = Vec::new();
            let mut at = self.log.seq_of.get(fh);
            while let Some(&seq) = at.filter(|seq| !wanted.contains_key(seq)) {
                chain.push(seq);
                at = self.log.seq_of.get(&self.log.entries[&seq].where_().dir);
            }
            // Where the walk stopped at an entry already placed, its
            // depth is known; otherwise the chain starts at depth 0.
            let base = at.map_or(0, |seq| wanted[seq] + 1);
            for (up, seq) in chain.into_iter().rev().enumerate() {
                wanted.insert(seq, base + up);
            }
        }
        let mut levels: Vec<Vec<Entry>> = Vec::new();
        for (seq, depth) in wanted {
            levels.resize_with(levels.len().max(depth + 1), Vec::new);
            levels[depth].push(self.log.entries[&seq].clone());
        }
        levels
    }

    /// The logged entry `fh`'s call is about to leave for the server
    /// (`true`), or the server refused it (`false`).
    pub(crate) fn sent(&mut self, fh: &Fh3, sent: bool) {
        if let Some(&seq) = self.log.seq_of.get(fh) {
            self.log.entries.get_mut(&seq).expect("indexed").sent = sent;
        }
    }

    /// The server made the logged entry `fh` as `server`: the call that
    /// reaches `fh` upstream now names `server`. `obj` is the reply's
    /// attributes of the file, `dir` what it shows of its directory.
    pub(crate) fn shipped(
        &mut self,
        fh: &Fh3,
        server: Fh3,
        obj: Option<Fattr3>,
        mut dir: WccData,
        dirty: bool,
    ) {
        let Some(entry) = self.log.remove(fh) else { return };
        self.map(fh, server, obj.as_ref().map(|a| a.fileid));
        if let Some(attr) = obj {
            self.observe(fh, attr, dirty);
        }
        self.take_in_wcc(&entry.where_().dir, &mut dir);
    }

    /// Record that the minted `fh` is `server` on the server, with the
    /// server fileid `fileid` when known.
    fn map(&mut self, fh: &Fh3, server: Fh3, fileid: Option<u64>) {
        self.alias_of.insert(server.clone(), fh.clone());
        if let Some(id) = fileid {
            self.fileid_of.insert(id, minted_fileid(fh));
        }
        self.server_of.insert(fh.clone(), (server, fileid));
    }

    /// `a/b/c`: the path of `w`, as far as the cache knows the names of
    /// the directories above it.
    pub(crate) fn path(&self, w: &DirOpArgs3) -> String {
        let mut parts = vec![w.name.as_str()];
        let mut dir = &w.dir;
        while parts.len() < 256 {
            let Some((parent, name)) = self.names.name_of(dir) else { break };
            parts.push(name);
            dir = parent;
        }
        parts.reverse();
        parts.join("/")
    }

    fn alias_fh(&self, fh: &mut Option<Fh3>) -> bool {
        let alias = fh.as_ref().and_then(|fh| self.alias_of.get(fh));
        alias.map(|m| *fh = Some(m.clone())).is_some()
    }

    fn alias_fileid(&self, id: &mut u64) -> bool {
        self.fileid_of.get(id).map(|m| *id = *m).is_some()
    }

    fn alias_attr(&self, attr: &mut Option<Fattr3>) -> bool {
        attr.as_mut().is_some_and(|a| self.alias_fileid(&mut a.fileid))
    }

    /// Observe the attributes in a reply's `slot` and leave there what
    /// is cached now. Whether the slot holds the cache's view rather than
    /// the server's: that of a dirty file, of a directory holding logged
    /// names, or of a minted file, which keeps its minted fileid.
    fn take_in(&mut self, fh: &Fh3, slot: &mut Option<Fattr3>, dirty: bool) -> bool {
        let Some(attr) = slot.take() else { return false };
        *slot = Some(self.observe(fh, attr, dirty));
        dirty || is_minted(fh) || self.holds_logged(fh)
    }

    /// The server unlinked a name of `fh` (REMOVE, RMDIR, or a RENAME
    /// onto it). A file the cached attributes show another link to lives
    /// on; with its last link gone it is forgotten and handed back. A
    /// shipped minted file's server handle is forgotten only when the
    /// cached attributes show that link was the last — a directory's, or
    /// a file's one link: without them the server may still reach the
    /// file by another name, which must keep coming back under its alias.
    fn unlink(&mut self, fh: Fh3) -> Option<Fh3> {
        match self.attrs.get_mut(&fh) {
            Some(attr) if attr.ftype != FType3::Dir && attr.nlink > 1 => {
                attr.nlink -= 1;
                None
            }
            cached => {
                if cached.is_some() {
                    if let Some((server, fileid)) = self.server_of.remove(&fh) {
                        self.alias_of.remove(&server);
                        if let Some(id) = fileid {
                            self.fileid_of.remove(&id);
                        }
                    }
                }
                self.invalidate_dir(&fh);
                self.drop_access(&fh);
                self.complete.remove(&fh);
                self.names.forget(&fh);
                Some(fh)
            }
        }
    }

    /// Whether the minted `fh` has a server handle.
    pub(crate) fn is_mapped(&self, fh: &Fh3) -> bool {
        self.server_of.contains_key(fh)
    }

    /// The attributes of `a.dir` when `a.name` is known absent from it:
    /// the directory is known completely, its attributes are in hand, and
    /// the name is one the server looks up — not "." or "..", which it
    /// resolves, nor an ACL file's, which the server proxy refuses whether
    /// or not it exists.
    fn absent(&self, a: &DirOpArgs3) -> Option<Fattr3> {
        let known = self.complete.get(&a.dir)?;
        if known.names.contains(&a.name) || is_dot(&a.name) || is_acl_file_name(&a.name) {
            return None;
        }
        self.attr(&a.dir)
    }

    /// A call changed the name `w` in its directory, and its reply
    /// carried `status` (`None`: no reply this cache can read). On OK the
    /// server did it and the name is `present` now. On ACCES the server
    /// refused the caller before it looked at the name, so the names the
    /// cache knows in the directory stand (the reply's attributes still go
    /// through the stamp check), but its cached ACCESS verdicts there do
    /// not: the server no longer grants what they say. Any other status —
    /// EXIST, NOENT and NOTEMPTY among them — shows the cache and the
    /// server disagreed, and the directory stops being known completely.
    fn learn(&mut self, w: &DirOpArgs3, status: Option<NfsStat3>, present: bool) {
        match status {
            Some(NfsStat3::Ok) => {
                if let Some(known) = self.complete.get_mut(&w.dir) {
                    if present {
                        known.names.insert(w.name.clone());
                    } else {
                        known.names.remove(&w.name);
                    }
                }
            }
            Some(NfsStat3::Acces) => self.drop_access(&w.dir),
            _ => self.forget_dir(&w.dir),
        }
    }

    /// `dir` stops being known completely, and its cached listings go
    /// with that knowledge. The names logged in it were logged on it:
    /// they ship now ([`take_expired`](Self::take_expired)).
    fn forget_dir(&mut self, dir: &Fh3) {
        self.readdirs.retain(|(d, _, _), _| d != dir);
        if self.complete.remove(dir).is_some() && self.holds_logged(dir) {
            self.expired.push(dir.clone());
        }
    }

    /// The logged entries of every directory that stopped being known
    /// since the last call: the caller ships them.
    pub(crate) fn take_expired(&mut self) -> Vec<Fh3> {
        let dirs = std::mem::take(&mut self.expired);
        dirs.iter().flat_map(|dir| self.log.in_dir(dir)).map(|e| e.fh.clone()).collect()
    }

    /// A reply shows `attr` of `fh`. A known directory whose mtime or
    /// ctime is not what the session last accounted for was changed by a
    /// call this session did not make, and stops being known; one whose
    /// stamp is not yet known takes this one.
    fn check_stamp(&mut self, fh: &Fh3, attr: &Fattr3) {
        let Some(known) = self.complete.get_mut(fh) else { return };
        match known.stamp {
            None => known.stamp = Some(stamp(attr)),
            Some(s) if s != stamp(attr) => self.forget_dir(fh),
            Some(_) => {}
        }
    }

    /// A call of this session changed `dir` on the server. `before` (the
    /// reply's pre-operation attributes) must show what the session last
    /// accounted for, else another client's call came first and `dir`
    /// stops being known; otherwise the next attributes a reply shows are
    /// its new stamp.
    fn restamp(&mut self, dir: &Fh3, before: Option<&WccAttr>) {
        let Some(known) = self.complete.get_mut(dir) else { return };
        match (known.stamp, before) {
            (Some(s), Some(b)) if s != (b.mtime, b.ctime) => self.forget_dir(dir),
            _ => known.stamp = None,
        }
    }

    /// [`take_in`](Self::take_in) for the attributes a call of this
    /// session leaves its directory with, [`restamp`](Self::restamp)ed.
    fn take_in_wcc(&mut self, dir: &Fh3, wcc: &mut WccData) -> bool {
        self.restamp(dir, wcc.before.as_ref());
        self.take_in(dir, &mut wcc.after, false)
    }

    fn drop_access(&mut self, fh: &Fh3) {
        self.access.remove(fh);
    }

    /// A name in `dir` changed: its listings and attributes are stale.
    fn invalidate_dir(&mut self, dir: &Fh3) {
        self.readdirs.retain(|(d, _, _), _| d != dir);
        self.attrs.remove(dir);
    }
}

fn is_dot(name: &str) -> bool {
    name == "." || name == ".."
}

/// Where a call record's arguments start, and the handles they name with
/// their byte ranges there: every NFSv3 call opens with a handle, RENAME
/// names a second directory after its first name, LINK a directory after
/// its file.
fn handles_in(record: &[u8]) -> (usize, Vec<(Range<usize>, Fh3)>) {
    let mut dec = XdrDecoder::new(record);
    let Ok(header) = CallHeader::decode(&mut dec) else { return (0, Vec::new()) };
    let at = dec.position();
    let mut dec = XdrDecoder::new(&record[at..]);
    let mut handles = Vec::new();
    let mut next = |dec: &mut XdrDecoder<'_>| {
        let start = dec.position();
        Fh3::decode(dec).map(|fh| handles.push((start..dec.position(), fh))).is_ok()
    };
    if header.proc != procnum::NULL && next(&mut dec) {
        let second = match header.proc {
            procnum::RENAME => dec.get_string().is_ok(),
            procnum::LINK => true,
            _ => false,
        };
        if second {
            next(&mut dec);
        }
    }
    (at, handles)
}

/// A reply that names files by handle or fileid.
trait Aliased {
    /// Swap in the mount's names of them (see [`NameCache::to_mount`]);
    /// whether anything changed.
    fn alias(&mut self, cache: &NameCache) -> bool;
}

/// Replies whose one file is in one attribute slot.
macro_rules! aliased_attr {
    ($($res:ty: $($slot:ident).+;)*) => {$(
        impl Aliased for $res {
            fn alias(&mut self, cache: &NameCache) -> bool {
                cache.alias_attr(&mut self.$($slot).+)
            }
        }
    )*};
}

aliased_attr! {
    GetAttrRes: attr;
    WccRes: wcc.after;
    AccessRes: obj_attr;
    ReadlinkRes: attr;
    ReadRes: attr;
    WriteRes: wcc.after;
    FsStatRes: attr;
    FsInfoRes: attr;
    PathConfRes: attr;
    CommitRes: wcc.after;
}

impl Aliased for LookupRes {
    fn alias(&mut self, cache: &NameCache) -> bool {
        cache.alias_fh(&mut self.object)
            | cache.alias_attr(&mut self.obj_attr)
            | cache.alias_attr(&mut self.dir_attr)
    }
}

impl Aliased for CreateRes {
    fn alias(&mut self, cache: &NameCache) -> bool {
        cache.alias_fh(&mut self.obj)
            | cache.alias_attr(&mut self.obj_attr)
            | cache.alias_attr(&mut self.dir_wcc.after)
    }
}

impl Aliased for RenameRes {
    fn alias(&mut self, cache: &NameCache) -> bool {
        cache.alias_attr(&mut self.from_wcc.after) | cache.alias_attr(&mut self.to_wcc.after)
    }
}

impl Aliased for LinkRes {
    fn alias(&mut self, cache: &NameCache) -> bool {
        cache.alias_attr(&mut self.attr) | cache.alias_attr(&mut self.dir_wcc.after)
    }
}

impl Aliased for ReaddirRes {
    fn alias(&mut self, cache: &NameCache) -> bool {
        let mut changed = cache.alias_attr(&mut self.dir_attr);
        for e in &mut self.entries {
            changed |= cache.alias_fileid(&mut e.fileid);
        }
        changed
    }
}

impl Aliased for ReaddirPlusRes {
    fn alias(&mut self, cache: &NameCache) -> bool {
        let mut changed = cache.alias_attr(&mut self.dir_attr);
        for e in &mut self.entries {
            changed |= cache.alias_fileid(&mut e.fileid)
                | cache.alias_attr(&mut e.attr)
                | cache.alias_fh(&mut e.handle);
        }
        changed
    }
}
