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
//! * a directory this session's MKDIR made is **known completely**: it
//!   started empty and every name in it since went through this cache,
//!   so a LOOKUP of a name absent from it is answered NOENT locally;
//! * every attribute a reply carries enters through one rule,
//!   [`NameCache::observe`]: a file with unflushed write-back data keeps
//!   the proxy's size and mtime, under partial placement a regular
//!   file's size only grows, otherwise the reply wins;
//! * it never answers a mutation, and never READ, WRITE or COMMIT: those
//!   belong to the data path, which reads attributes through
//!   [`NameCache::attr`] and whose [`BlockStore`](super::blockstore::BlockStore)
//!   alone says whether a file is dirty.

use crate::acl::is_acl_file_name;
use crate::proxy::client::{decode_reply, encode_reply, success_body};
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_obs::{Emitter, Hop};
use sgfs_oncrpc::{OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::{HashMap, HashSet};

/// A call's arguments as far as the namespace cache reads them, decoded
/// once.
pub(crate) enum Call {
    GetAttr(Fh3),
    /// The arguments and the caller's uid.
    Access(AccessArgs, u32),
    Lookup(DirOpArgs3),
    /// Directory, cookie, and whether the listing is READDIRPLUS.
    Readdir(Fh3, u64, bool),
    SetAttr(SetAttrArgs),
    /// CREATE, SYMLINK or MKNOD: the name made.
    Create(DirOpArgs3),
    /// MKDIR: the name made, a directory known completely once made.
    Mkdir(DirOpArgs3),
    /// REMOVE or RMDIR.
    Remove(DirOpArgs3),
    Rename(RenameArgs),
    Link(LinkArgs),
    /// Anything the cache neither answers nor learns from.
    Other,
}

impl Call {
    pub(crate) fn decode(proc: u32, args: &[u8], cred: &OpaqueAuth) -> Self {
        let call = match proc {
            procnum::GETATTR => Fh3::from_xdr_bytes(args).map(Call::GetAttr),
            procnum::ACCESS => {
                let uid = cred.as_sys().map(|s| s.uid).unwrap_or(u32::MAX);
                AccessArgs::from_xdr_bytes(args).map(|a| Call::Access(a, uid))
            }
            procnum::LOOKUP => DirOpArgs3::from_xdr_bytes(args).map(Call::Lookup),
            procnum::READDIR => {
                ReaddirArgs::from_xdr_bytes(args).map(|a| Call::Readdir(a.dir, a.cookie, false))
            }
            procnum::READDIRPLUS => {
                ReaddirPlusArgs::from_xdr_bytes(args).map(|a| Call::Readdir(a.dir, a.cookie, true))
            }
            procnum::SETATTR => SetAttrArgs::from_xdr_bytes(args).map(Call::SetAttr),
            procnum::CREATE => CreateArgs::from_xdr_bytes(args).map(|a| Call::Create(a.where_)),
            procnum::MKDIR => MkdirArgs::from_xdr_bytes(args).map(|a| Call::Mkdir(a.where_)),
            procnum::SYMLINK => SymlinkArgs::from_xdr_bytes(args).map(|a| Call::Create(a.where_)),
            // Only the leading `where` is read; the node's type follows.
            procnum::MKNOD => DirOpArgs3::decode(&mut XdrDecoder::new(args)).map(Call::Create),
            procnum::REMOVE | procnum::RMDIR => DirOpArgs3::from_xdr_bytes(args).map(Call::Remove),
            procnum::RENAME => RenameArgs::from_xdr_bytes(args).map(Call::Rename),
            procnum::LINK => LinkArgs::from_xdr_bytes(args).map(Call::Link),
            _ => return Call::Other,
        };
        call.unwrap_or(Call::Other)
    }
}

/// What the session knows about names and files.
pub(crate) struct NameCache {
    attrs: HashMap<Fh3, Fattr3>,
    /// Per (file, uid): (mask of bits ever checked upstream, granted
    /// bits within that mask). A request is only served from cache when
    /// every bit it asks about has actually been checked — granted bits
    /// say nothing about bits the server was never asked to evaluate.
    access: HashMap<(Fh3, u32), (u32, u32)>,
    /// (directory, name) → the file it reaches.
    names: HashMap<(Fh3, String), Fh3>,
    /// Every name in each directory known completely. Kept from reply
    /// statuses alone, never from `names`, which may forget a name that
    /// still exists: here a missing name means "absent", there "ask".
    complete: HashMap<Fh3, HashSet<String>>,
    /// Raw READDIR/READDIRPLUS result bodies keyed (dir, cookie, plus?).
    readdirs: HashMap<(Fh3, u64, bool), Vec<u8>>,
    /// Partial placement: a member lacking a file's final block
    /// undershoots its size.
    partial: bool,
    /// Monotonic synthesized mtime for locally acknowledged writes.
    synth_mtime: u64,
    stats: Emitter,
}

impl NameCache {
    pub(crate) fn new(partial: bool, stats: Emitter) -> Self {
        Self {
            attrs: HashMap::new(),
            access: HashMap::new(),
            names: HashMap::new(),
            complete: HashMap::new(),
            readdirs: HashMap::new(),
            partial,
            synth_mtime: 1,
            stats,
        }
    }

    /// The cached attributes of `fh`.
    pub(crate) fn attr(&self, fh: &Fh3) -> Option<Fattr3> {
        self.attrs.get(fh).cloned()
    }

    /// The reply to `call` (xid `xid`, procedure `proc`) when the cache
    /// can give it, counting the hit or miss of every call it could have
    /// answered. A name or an ACCESS verdict is answered only with its
    /// file's attributes in hand, an absent name only with its
    /// directory's: the reply carries them.
    pub(crate) fn answer(&self, xid: u32, proc: u32, call: &Call) -> Option<Vec<u8>> {
        let reply = match call {
            Call::GetAttr(fh) => self.attr(fh).map(|attr| {
                encode_reply(xid, &GetAttrRes { status: NfsStat3::Ok, attr: Some(attr) })
            }),
            Call::Access(a, uid) => match self.access.get(&(a.object.clone(), *uid)) {
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
            Call::Lookup(a) => match self.names.get(&(a.dir.clone(), a.name.clone())) {
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
                self.readdirs.get(&(dir.clone(), *cookie, *plus)).map(|body| {
                    let mut enc = XdrEncoder::with_capacity(body.len() + 32);
                    ReplyHeader::success(xid).encode(&mut enc);
                    let mut out = enc.into_bytes();
                    out.extend_from_slice(body);
                    out
                })
            }
            _ => return None,
        };
        self.stats.emit(if reply.is_some() { Hop::CacheHit } else { Hop::CacheMiss }, xid, proc, 0);
        reply
    }

    /// Take in the `reply` the server gave to `call`: drop what the call
    /// made stale, learn what the reply shows. `dirty` says whether the
    /// proxy holds unflushed data of a file, whose GETATTR, LOOKUP and
    /// ACCESS replies are handed on with the proxy's attributes. Returns
    /// the reply to hand on and the file, if any, whose last link the
    /// server removed: nothing of it is kept here, and the caller drops
    /// its blocks (the paper's temporary-file optimization).
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
                let dirty = dirty(fh);
                self.take_in(fh, &mut res.attr, dirty);
                dirty.then(|| encode_reply(xid, &res))
            }),
            Call::Access(a, uid) => decode_reply::<AccessRes>(&reply).ok().and_then(|mut res| {
                if res.status == NfsStat3::Ok {
                    // Remember which bits this check covered and refresh
                    // the granted state within that mask only.
                    let entry = self.access.entry((a.object.clone(), *uid)).or_insert((0, 0));
                    entry.1 = (entry.1 & !a.access) | res.access;
                    entry.0 |= a.access;
                }
                let dirty = dirty(&a.object);
                self.take_in(&a.object, &mut res.obj_attr, dirty);
                dirty.then(|| encode_reply(xid, &res))
            }),
            Call::Lookup(a) => {
                let res = decode_reply::<LookupRes>(&reply).ok();
                // The server's word on a known directory's name must be
                // the set's; if it is not, the set is not trusted again.
                if let Some(known) = self.complete.get(&a.dir) {
                    let agrees = match res.as_ref().map(|r| r.status) {
                        Some(NfsStat3::Ok) => known.contains(&a.name) || is_dot(&a.name),
                        Some(NfsStat3::NoEnt) => !known.contains(&a.name),
                        Some(_) => true,
                        None => false,
                    };
                    if !agrees {
                        self.complete.remove(&a.dir);
                    }
                }
                res.and_then(|mut res| {
                    let fh = res.object.clone()?;
                    let dirty = dirty(&fh);
                    self.take_in(&fh, &mut res.obj_attr, dirty);
                    // "." and ".." are the server's to resolve: a moved
                    // directory has a new "..".
                    if !is_dot(&a.name) {
                        self.names.insert((a.dir.clone(), a.name.clone()), fh);
                    }
                    dirty.then(|| encode_reply(xid, &res))
                })
            }
            Call::Readdir(dir, cookie, plus) => {
                if let Some(body) = success_body(&reply) {
                    self.readdirs.insert((dir.clone(), *cookie, *plus), body.to_vec());
                    // The entries' attributes are cached; the listing
                    // itself is handed on as the server wrote it.
                    let res = plus.then(|| ReaddirPlusRes::from_xdr_bytes(body).ok()).flatten();
                    for e in res.into_iter().flat_map(|r| r.entries) {
                        if let (Some(fh), Some(attr)) = (e.handle, e.attr) {
                            let dirty = dirty(&fh);
                            self.observe(&fh, attr, dirty);
                        }
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
                if !dirty(fh) {
                    self.attrs.remove(fh);
                } else if let Ok(WccRes { wcc: WccData { after: Some(attr), .. }, .. }) =
                    decode_reply(&reply)
                {
                    self.observe(fh, attr, true);
                }
                None
            }
            Call::Create(w) | Call::Mkdir(w) => {
                self.invalidate_dir(&w.dir);
                let res = decode_reply::<CreateRes>(&reply).ok();
                let made =
                    res.as_ref().filter(|r| r.status == NfsStat3::Ok).and_then(|r| r.obj.clone());
                // An OK without a handle leaves the directory in doubt. A
                // directory made here starts empty, and every name made
                // in it later passes through this cache.
                self.learn(w, made.is_some(), true);
                if let (Some(fh), Call::Mkdir(_)) = (made, call) {
                    self.complete.insert(fh, HashSet::new());
                }
                if let Some(mut res) = res {
                    // The directory's fresh attributes serve the kernel
                    // client's next revalidation locally.
                    self.take_in(&w.dir, &mut res.dir_wcc.after, false);
                    if let Some(fh) = res.obj {
                        // An UNCHECKED CREATE of an existing name returns
                        // that file, which may be dirty, with the mode it
                        // was just given.
                        self.drop_access(&fh);
                        let dirty = dirty(&fh);
                        self.take_in(&fh, &mut res.obj_attr, dirty);
                        self.names.insert((w.dir.clone(), w.name.clone()), fh);
                    }
                }
                None
            }
            // Only what the server did is learned: a refused REMOVE or
            // RENAME leaves every name, and the write-back data owed to
            // the files they reach.
            Call::Remove(w) => {
                self.invalidate_dir(&w.dir);
                let res = decode_reply::<WccRes>(&reply).ok();
                self.learn(w, res.as_ref().is_some_and(|r| r.status == NfsStat3::Ok), false);
                if let Some(mut res) = res {
                    if res.status == NfsStat3::Ok {
                        if let Some(fh) = self.names.remove(&(w.dir.clone(), w.name.clone())) {
                            gone = self.unlink(fh);
                        }
                    }
                    self.take_in(&w.dir, &mut res.wcc.after, false);
                }
                None
            }
            Call::Rename(a) => {
                let (from, to) = (&a.from, &a.to);
                self.invalidate_dir(&from.dir);
                self.invalidate_dir(&to.dir);
                let res = decode_reply::<RenameRes>(&reply).ok();
                let ok = res.as_ref().is_some_and(|r| r.status == NfsStat3::Ok);
                // A RENAME onto another link of the same file leaves both
                // names: the source is known gone only when the target
                // was known absent.
                let free = self.complete.get(&to.dir).is_some_and(|k| !k.contains(&to.name));
                self.learn(from, ok && free, false);
                self.learn(to, ok, true);
                if let Some(mut res) = res {
                    if res.status == NfsStat3::Ok {
                        let from_name = (from.dir.clone(), from.name.clone());
                        let to_name = (to.dir.clone(), to.name.clone());
                        let moved = self.names.remove(&from_name);
                        let replaced = match &moved {
                            Some(fh) => self.names.insert(to_name, fh.clone()),
                            None => self.names.remove(&to_name),
                        };
                        match replaced {
                            // Two names of one file: RENAME does nothing.
                            Some(fh) if moved.as_ref() == Some(&fh) => {
                                self.names.insert(from_name, fh);
                            }
                            // The server unlinked what the destination
                            // name used to reach.
                            Some(fh) => gone = self.unlink(fh),
                            None => {}
                        }
                        // A directory moved to another parent lists a
                        // new "..".
                        self.readdirs.retain(|(d, _, _), _| Some(d) != moved.as_ref());
                    }
                    self.take_in(&from.dir, &mut res.from_wcc.after, false);
                    self.take_in(&to.dir, &mut res.to_wcc.after, false);
                }
                None
            }
            Call::Link(a) => {
                self.invalidate_dir(&a.link.dir);
                let res = decode_reply::<LinkRes>(&reply).ok();
                self.learn(&a.link, res.as_ref().is_some_and(|r| r.status == NfsStat3::Ok), true);
                if let Some(mut res) = res {
                    self.take_in(&a.link.dir, &mut res.dir_wcc.after, false);
                    // The link count is what `unlink` decides by.
                    let dirty = dirty(&a.file);
                    self.take_in(&a.file, &mut res.attr, dirty);
                    if res.status == NfsStat3::Ok {
                        let name = (a.link.dir.clone(), a.link.name.clone());
                        self.names.insert(name, a.file.clone());
                    }
                }
                None
            }
            Call::Other => None,
        };
        (patched.unwrap_or(reply), gone)
    }

    /// The one rule every attribute a reply carries is cached by. A
    /// `dirty` file keeps the proxy's size and mtime — the server has not
    /// seen its write-back data — and takes the rest. Under partial
    /// placement a regular file's size only grows: a member lacking the
    /// final block undershoots it (an explicit truncation drops the
    /// attributes instead). Otherwise the reply wins. Returns what is
    /// cached now.
    pub(crate) fn observe(&mut self, fh: &Fh3, mut attr: Fattr3, dirty: bool) -> Fattr3 {
        if let Some(prev) = self.attrs.get(fh) {
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

    /// Observe the attributes in a reply's `slot` and leave there what
    /// is cached now.
    fn take_in(&mut self, fh: &Fh3, slot: &mut Option<Fattr3>, dirty: bool) {
        if let Some(attr) = slot.take() {
            *slot = Some(self.observe(fh, attr, dirty));
        }
    }

    /// The server unlinked a name of `fh` (REMOVE, RMDIR, or a RENAME
    /// onto it). A file the cached attributes show another link to lives
    /// on; with its last link gone it is forgotten and handed back.
    fn unlink(&mut self, fh: Fh3) -> Option<Fh3> {
        match self.attrs.get_mut(&fh) {
            Some(attr) if attr.ftype != FType3::Dir && attr.nlink > 1 => {
                attr.nlink -= 1;
                None
            }
            _ => {
                self.invalidate_dir(&fh);
                self.drop_access(&fh);
                self.complete.remove(&fh);
                self.names.retain(|_, f| *f != fh);
                Some(fh)
            }
        }
    }

    /// The attributes of `a.dir` when `a.name` is known absent from it:
    /// the directory is known completely, its attributes are in hand, and
    /// the name is one the server looks up — not "." or "..", which it
    /// resolves, nor an ACL file's, which the server proxy refuses whether
    /// or not it exists.
    fn absent(&self, a: &DirOpArgs3) -> Option<Fattr3> {
        let known = self.complete.get(&a.dir)?;
        if known.contains(&a.name) || is_dot(&a.name) || is_acl_file_name(&a.name) {
            return None;
        }
        self.attr(&a.dir)
    }

    /// A call changed the name `w` in its directory. When `done`, the
    /// server did it and the name is `present` now; otherwise the reply
    /// leaves the directory's contents in doubt, and it stops being known
    /// completely.
    fn learn(&mut self, w: &DirOpArgs3, done: bool, present: bool) {
        if !done {
            self.complete.remove(&w.dir);
        } else if let Some(known) = self.complete.get_mut(&w.dir) {
            if present {
                known.insert(w.name.clone());
            } else {
                known.remove(&w.name);
            }
        }
    }

    fn drop_access(&mut self, fh: &Fh3) {
        self.access.retain(|(f, _), _| f != fh);
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
