//! XDR decoder: reads RFC 4506 primitives from a borrowed byte slice.

use crate::error::{XdrError, XdrResult};

/// A zero-copy XDR decoder over a borrowed buffer.
///
/// Reads advance an internal cursor; variable-length reads validate their
/// length prefixes against caller-supplied or default bounds so untrusted
/// input cannot trigger unbounded allocation.
#[derive(Debug)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Default bound for variable-length items when the caller does not supply
/// one. Large enough for NFS READ/WRITE payloads (up to 1 MB) plus framing.
const DEFAULT_MAX_LEN: u32 = 4 * 1024 * 1024;

impl<'a> XdrDecoder<'a> {
    /// Create a decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> XdrResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a signed 32-bit integer.
    pub fn get_i32(&mut self) -> XdrResult<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Read an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> XdrResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a signed 64-bit integer.
    pub fn get_i64(&mut self) -> XdrResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a boolean, rejecting values other than 0 and 1.
    pub fn get_bool(&mut self) -> XdrResult<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    /// Read variable-length opaque data with the default length bound.
    pub fn get_opaque(&mut self) -> XdrResult<Vec<u8>> {
        self.get_opaque_max(DEFAULT_MAX_LEN)
    }

    /// Zero-copy variant of [`get_opaque`](Self::get_opaque): the
    /// returned slice borrows from the decoder's buffer.
    pub fn get_opaque_ref(&mut self) -> XdrResult<&'a [u8]> {
        self.get_opaque_ref_max(DEFAULT_MAX_LEN)
    }

    /// Read variable-length opaque data whose length must not exceed `max`.
    pub fn get_opaque_max(&mut self, max: u32) -> XdrResult<Vec<u8>> {
        Ok(self.get_opaque_ref_max(max)?.to_vec())
    }

    /// Zero-copy variant of [`get_opaque_max`](Self::get_opaque_max): the
    /// returned slice borrows from the decoder's buffer.
    pub fn get_opaque_ref_max(&mut self, max: u32) -> XdrResult<&'a [u8]> {
        let len = self.get_u32()?;
        if len > max {
            return Err(XdrError::LengthTooLarge { len, max });
        }
        let data = self.take(len as usize)?;
        let pad = (4 - len as usize % 4) % 4;
        let padding = self.take(pad)?;
        if padding.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(data)
    }

    /// Read fixed-length opaque data of exactly `len` bytes (plus padding).
    pub fn get_fixed_opaque(&mut self, len: usize) -> XdrResult<Vec<u8>> {
        let data = self.take(len)?.to_vec();
        let pad = (4 - len % 4) % 4;
        let padding = self.take(pad)?;
        if padding.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(data)
    }

    /// Read a UTF-8 string with the default length bound.
    pub fn get_string(&mut self) -> XdrResult<String> {
        self.get_string_max(DEFAULT_MAX_LEN)
    }

    /// Read a UTF-8 string whose byte length must not exceed `max`.
    pub fn get_string_max(&mut self, max: u32) -> XdrResult<String> {
        let bytes = self.get_opaque_ref_max(max)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| XdrError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::XdrEncoder;

    #[test]
    fn roundtrip_all_primitives() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(u32::MAX);
        enc.put_i32(i32::MIN);
        enc.put_u64(u64::MAX);
        enc.put_i64(i64::MIN);
        enc.put_bool(true);
        enc.put_opaque(b"hello");
        enc.put_string("world!!");
        let bytes = enc.into_bytes();

        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_u32().unwrap(), u32::MAX);
        assert_eq!(dec.get_i32().unwrap(), i32::MIN);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_i64().unwrap(), i64::MIN);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_opaque().unwrap(), b"hello");
        assert_eq!(dec.get_string().unwrap(), "world!!");
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn eof_detected() {
        let mut dec = XdrDecoder::new(&[0, 0]);
        assert!(matches!(
            dec.get_u32().unwrap_err(),
            XdrError::UnexpectedEof { needed: 4, remaining: 2 }
        ));
    }

    #[test]
    fn oversize_length_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(1_000_000); // claimed length far beyond the buffer
        let bytes = enc.into_bytes();
        let mut dec = XdrDecoder::new(&bytes);
        assert!(matches!(
            dec.get_opaque_max(16).unwrap_err(),
            XdrError::LengthTooLarge { len: 1_000_000, max: 16 }
        ));
    }

    #[test]
    fn nonzero_padding_rejected() {
        // length 1, data 'a', padding deliberately corrupted
        let bytes = [0, 0, 0, 1, b'a', 1, 0, 0];
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_opaque().unwrap_err(), XdrError::NonZeroPadding);
    }

    #[test]
    fn invalid_bool_rejected() {
        let bytes = [0, 0, 0, 2];
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_bool().unwrap_err(), XdrError::InvalidBool(2));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        let mut dec = XdrDecoder::new(&bytes);
        assert_eq!(dec.get_string().unwrap_err(), XdrError::InvalidUtf8);
    }
}
