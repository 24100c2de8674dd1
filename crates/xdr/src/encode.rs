//! XDR encoder: appends RFC 4506 primitives to a growable buffer.

/// An append-only XDR encoder.
///
/// All primitives are written big-endian; opaque and string data are padded
/// with zero bytes to the next 4-byte boundary, as the spec requires.
#[derive(Debug, Default)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Create an encoder whose buffer has at least `cap` bytes reserved.
    ///
    /// Useful on the data path where message sizes (32 KB NFS blocks) are
    /// known up front and reallocation would show up in profiles.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Continue encoding after the bytes already in `buf` — headroom a
    /// later layer fills in, or a reused buffer's retained capacity.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes without consuming the encoder.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an unsigned 64-bit integer ("unsigned hyper").
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a signed 64-bit integer ("hyper").
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a boolean (encoded as a u32 of value 0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Append variable-length opaque data (u32 length, bytes, zero padding).
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_fixed_opaque(data);
    }

    /// Append fixed-length opaque data (bytes plus zero padding, no length).
    pub fn put_fixed_opaque(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        let pad = (4 - data.len() % 4) % 4;
        self.buf.extend_from_slice(&[0u8; 3][..pad]);
    }

    /// Append a UTF-8 string (same wire form as variable opaque).
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_big_endian() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(0x0102_0304);
        enc.put_i32(-1);
        enc.put_u64(0x0102_0304_0506_0708);
        assert_eq!(
            enc.as_bytes(),
            &[1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn opaque_padding() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(b"abcde");
        // 4 length bytes + 5 data bytes + 3 padding bytes
        assert_eq!(enc.len(), 12);
        assert_eq!(&enc.as_bytes()[..4], &[0, 0, 0, 5]);
        assert_eq!(&enc.as_bytes()[9..], &[0, 0, 0]);
    }

    #[test]
    fn exact_multiple_needs_no_padding() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(b"abcd");
        assert_eq!(enc.len(), 8);
    }

    #[test]
    fn bool_encoding() {
        let mut enc = XdrEncoder::new();
        enc.put_bool(true);
        enc.put_bool(false);
        assert_eq!(enc.as_bytes(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }
}
