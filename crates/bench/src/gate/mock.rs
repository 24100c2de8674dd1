//! The stand-in peers and record builders the suites share.

use sgfs_nfs3::types::{FType3, Fattr3, NfsTime3};
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_xdr::{XdrEncode, XdrEncoder};

/// A FIFO upstream that answers every record with an equal-length reply.
pub fn echo_upstream(mut end: sgfs_net::PipeEnd) {
    std::thread::spawn(move || {
        while let Ok(Some(record)) = read_record(&mut end) {
            if write_record(&mut end, &record).is_err() {
                return;
            }
        }
    });
}

/// Attributes of the one regular file the mock servers serve.
pub fn base_attr(size: u64) -> Fattr3 {
    let time = NfsTime3 { seconds: 1, nseconds: 0 };
    Fattr3 {
        ftype: FType3::Reg,
        mode: 0o644,
        nlink: 1,
        uid: 1001,
        gid: 1001,
        size,
        used: size,
        fsid: 1,
        fileid: 42,
        atime: time,
        mtime: time,
        ctime: time,
    }
}

/// An encoded NFSv3 call record.
pub fn call_record<T: XdrEncode>(xid: u32, proc: u32, args: &T) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc,
        cred: OpaqueAuth::sys(&AuthSysParams::new("bench-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(1024);
    header.encode(&mut enc);
    args.encode(&mut enc);
    enc.into_bytes()
}

/// An encoded accepted reply carrying `res`.
pub fn reply_bytes<T: XdrEncode>(xid: u32, res: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(1024);
    ReplyHeader::success(xid).encode(&mut enc);
    res.encode(&mut enc);
    enc.into_bytes()
}
