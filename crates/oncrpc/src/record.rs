//! RFC 5531 §11 record marking for stream transports.
//!
//! Each RPC message is carried as one or more fragments; a fragment header
//! is a 4-byte big-endian word whose top bit flags the final fragment and
//! whose low 31 bits give the fragment length.

use std::io::{self, Read, Write};

/// Refuse records larger than this (defense against corrupt length words).
pub const MAX_RECORD: usize = 8 * 1024 * 1024;

/// Bytes of a record mark (one fragment header). A buffer that keeps this
/// much headroom in front of a record can go out through
/// [`write_marked`] without being copied.
pub const MARK_LEN: usize = 4;

/// The mark of a record of `len` bytes sent as one final fragment.
pub(crate) fn mark(len: usize) -> [u8; MARK_LEN] {
    (0x8000_0000 | len as u32).to_be_bytes()
}

/// A copy of `data` behind [`MARK_LEN`] bytes of headroom, ready for
/// [`write_marked`] as often as it is sent.
pub fn framed(data: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MARK_LEN + data.len());
    buf.extend_from_slice(&[0; MARK_LEN]);
    buf.extend_from_slice(data);
    buf
}

/// Write one complete record, staged behind its mark in a fresh buffer.
/// Writers of many records keep their own headroom and call
/// [`write_marked`] instead.
pub fn write_record<W: Write + ?Sized>(w: &mut W, data: &[u8]) -> io::Result<()> {
    write_marked(w, &mut framed(data))
}

/// Write `buf[MARK_LEN..]` as one record (a single final fragment), its
/// mark patched into the `MARK_LEN` bytes of headroom in front of it.
///
/// Mark and payload go out in ONE write call, uncopied: the in-memory
/// pipe transport stamps arrival times per write, GTLS seals one record
/// per write, and a logically atomic message must carry a single stamp
/// (see sgfs-net's clock docs). A record over [`MAX_RECORD`], which no
/// reader would accept, is refused.
pub fn write_marked<W: Write + ?Sized>(w: &mut W, buf: &mut [u8]) -> io::Result<()> {
    let len = buf.len().checked_sub(MARK_LEN).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "record buffer lacks its mark headroom")
    })?;
    if len > MAX_RECORD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("record of {len} bytes exceeds {MAX_RECORD}"),
        ));
    }
    buf[..MARK_LEN].copy_from_slice(&mark(len));
    w.write_all(buf)?;
    w.flush()
}

/// Read one complete record, reassembling fragments.
///
/// Returns `Ok(None)` on clean EOF at a record boundary.
pub fn read_record<R: Read + ?Sized>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut out = Vec::new();
    Ok(read_record_into(r, &mut out)?.then_some(out))
}

/// Like [`read_record`] but reassembles into a caller-provided buffer
/// (whatever it held is overwritten), returning `false` on clean EOF at a
/// record boundary. At steady state the buffer is at its high-water
/// capacity and no allocation occurs, and only the bytes by which a
/// record outgrows the buffer's previous length are zeroed before the
/// read fills them. After an error the buffer's contents are unspecified.
pub fn read_record_into<R: Read + ?Sized>(r: &mut R, out: &mut Vec<u8>) -> io::Result<bool> {
    read_record_at(r, out, 0)
}

/// Like [`read_record_into`], but the record lands in `out[start..]` and
/// `out[..start]` (headroom for a mark, say) is kept: on success
/// `out.len()` is `start` plus the record's length. A buffer reused at
/// its high-water length is overwritten, never zero-filled again.
pub fn read_record_at<R: Read + ?Sized>(
    r: &mut R,
    out: &mut Vec<u8>,
    start: usize,
) -> io::Result<bool> {
    if out.len() < start {
        out.resize(start, 0);
    }
    // Bytes of this record reassembled so far; `out` beyond it still
    // holds the previous record until the final truncate.
    let mut filled = 0;
    loop {
        let mut hdr = [0u8; MARK_LEN];
        match read_exact_or_eof(r, &mut hdr)? {
            false if filled == 0 => return Ok(false),
            false => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-record"))
            }
            true => {}
        }
        let word = u32::from_be_bytes(hdr);
        let last = word & 0x8000_0000 != 0;
        let len = (word & 0x7fff_ffff) as usize;
        if filled + len > MAX_RECORD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record exceeds {MAX_RECORD} bytes"),
            ));
        }
        let (from, to) = (start + filled, start + filled + len);
        if out.len() < to {
            out.resize(to, 0);
        }
        r.read_exact(&mut out[from..to])?;
        filled += len;
        if last {
            out.truncate(start + filled);
            return Ok(true);
        }
    }
}

/// Classify a record-I/O error as transient (curable by tearing the
/// connection down and re-dialing) or fatal.
///
/// Everything a broken *channel* can cause is transient: EOF mid-record,
/// reset/refused/aborted connections, timeouts, and even `InvalidData`
/// (a corrupted length word or a garbled reply says nothing about the next
/// connection — a fresh channel starts from a clean record boundary).
/// Only errors that indict the *caller or host* rather than the wire are
/// fatal: malformed requests, permission failures, unsupported operations,
/// resource exhaustion.
pub fn is_transient_io(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::InvalidInput
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::Unsupported
            | io::ErrorKind::OutOfMemory
    )
}

/// Read exactly `buf.len()` bytes, or return `Ok(false)` if EOF occurs
/// before the first byte.
fn read_exact_or_eof<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 if filled == 0 => return Ok(false),
            0 => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-header")),
            n => filled += n,
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_single_fragment() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"hello rpc").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_record(&mut cur).unwrap().unwrap(), b"hello rpc");
        assert!(read_record(&mut cur).unwrap().is_none());
    }

    #[test]
    fn roundtrip_empty_record() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_record(&mut cur).unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multiple_records_in_sequence() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"first").unwrap();
        write_record(&mut buf, b"second").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_record(&mut cur).unwrap().unwrap(), b"first");
        assert_eq!(read_record(&mut cur).unwrap().unwrap(), b"second");
        assert!(read_record(&mut cur).unwrap().is_none());
    }

    #[test]
    fn reassembles_multi_fragment_records() {
        // Hand-build a record split into three fragments.
        let mut buf = Vec::new();
        for (i, frag) in [&b"ab"[..], b"cd", b"ef"].iter().enumerate() {
            let mut word = frag.len() as u32;
            if i == 2 {
                word |= 0x8000_0000;
            }
            buf.extend_from_slice(&word.to_be_bytes());
            buf.extend_from_slice(frag);
        }
        let mut cur = Cursor::new(buf);
        assert_eq!(read_record(&mut cur).unwrap().unwrap(), b"abcdef");
    }

    /// A reused buffer is not cleared between records: whatever the
    /// previous record left in it must never show through, whether the
    /// next record is shorter, longer, empty or split into fragments.
    #[test]
    fn reused_buffer_holds_exactly_the_last_record() {
        let mut wire = Vec::new();
        let long: Vec<u8> = (0..5000).map(|i| (i % 253) as u8).collect();
        write_record(&mut wire, &long).unwrap();
        write_record(&mut wire, b"short").unwrap();
        write_record(&mut wire, b"").unwrap();
        for (i, frag) in [&b"ab"[..], b"cdef", b"g"].iter().enumerate() {
            let last = if i == 2 { 0x8000_0000 } else { 0 };
            wire.extend_from_slice(&(frag.len() as u32 | last).to_be_bytes());
            wire.extend_from_slice(frag);
        }
        write_record(&mut wire, &long).unwrap();
        let mut cur = Cursor::new(wire);
        let mut buf = vec![0xEEu8; 64];
        for want in [&long[..], b"short", b"", b"abcdefg", &long[..]] {
            assert!(read_record_into(&mut cur, &mut buf).unwrap());
            assert_eq!(buf, want);
        }
        assert!(!read_record_into(&mut cur, &mut buf).unwrap());
    }

    /// A buffer with mark headroom leaves in one write, uncopied, and
    /// reads back into another buffer's tail with its headroom kept.
    #[test]
    fn marked_records_round_trip_through_headroom() {
        let mut wire = Vec::new();
        let mut call = vec![0xEE; MARK_LEN];
        call.extend_from_slice(b"payload");
        write_marked(&mut wire, &mut call).unwrap();
        assert_eq!(&call[..MARK_LEN], &mark(7), "the mark is patched into the headroom");
        assert_eq!(&wire[..], &call[..]);
        write_marked(&mut wire, &mut [0; MARK_LEN]).unwrap();
        let mut cur = Cursor::new(wire);
        let mut out = b"HDR!stale bytes of a longer record".to_vec();
        assert!(read_record_at(&mut cur, &mut out, MARK_LEN).unwrap());
        assert_eq!(out, b"HDR!payload");
        assert!(read_record_at(&mut cur, &mut out, MARK_LEN).unwrap());
        assert_eq!(out, b"HDR!", "an empty record leaves only the headroom");
        assert!(!read_record_at(&mut cur, &mut out, MARK_LEN).unwrap());

        let err = write_marked(&mut Vec::new(), &mut [0; 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn truncated_record_is_error() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_record(&mut cur).is_err());
    }

    #[test]
    fn eof_mid_header_is_error() {
        let mut cur = Cursor::new(vec![0x80u8, 0x00]);
        assert!(read_record(&mut cur).is_err());
    }

    #[test]
    fn oversized_record_rejected() {
        let word = 0x8000_0000u32 | (MAX_RECORD as u32 + 1);
        let mut cur = Cursor::new(word.to_be_bytes().to_vec());
        let err = read_record(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn transient_classification() {
        // Wire-level failures must be retried over a fresh connection…
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::TimedOut,
            io::ErrorKind::InvalidData, // corrupt stream: cured by re-dial
        ] {
            assert!(is_transient_io(&io::Error::new(kind, "x")), "{kind:?}");
        }
        // …while caller/host errors must stay fatal.
        for kind in [
            io::ErrorKind::InvalidInput,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::Unsupported,
            io::ErrorKind::OutOfMemory,
        ] {
            assert!(!is_transient_io(&io::Error::new(kind, "x")), "{kind:?}");
        }
    }

    #[test]
    fn large_record_roundtrip() {
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_record(&mut buf, &data).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_record(&mut cur).unwrap().unwrap(), data);
    }
}
