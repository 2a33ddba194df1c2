//! Compact binary wire format — the stand-in for Thrift's compact protocol
//! (§4.1: "Gallery users interact with Gallery via a standard set of
//! Thrift APIs with language-specific clients").
//!
//! Primitives: LEB128 varints for unsigned integers, zigzag for signed,
//! little-endian IEEE-754 for floats, length-prefixed UTF-8 strings and
//! byte arrays, and `u8` tags for enums. Every message is framed as
//! `[u32 little-endian payload length][payload]`.

use bytes::{Bytes, BytesMut};
use std::fmt;

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub message: String,
}

impl WireError {
    pub fn new(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Bytes of the frame's length prefix.
const PREFIX: usize = 4;

/// Encoder over a growable buffer. The buffer starts with room for the
/// frame's length prefix, so [`Writer::frame`] patches the length in
/// rather than copying the payload behind a new header.
#[derive(Debug)]
pub struct Writer {
    buf: BytesMut,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    pub fn new() -> Self {
        // Most messages (a DTO and its envelope) fit without regrowing; a
        // blob grows the buffer once, to the size it needs.
        Self::with_capacity(256 - PREFIX)
    }

    /// A writer with room for a `payload`-byte message and its frame
    /// prefix: a message whose size is known up front never regrows.
    pub fn with_capacity(payload: usize) -> Self {
        let mut buf = BytesMut::with_capacity(PREFIX + payload);
        buf.put_slice(&[0; PREFIX]);
        Writer { buf }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// LEB128 unsigned varint.
    pub fn put_uvarint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                break;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(zigzag(v));
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_uvarint(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_uvarint(b.len() as u64);
        self.buf.put_slice(b);
    }

    pub fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.put_bool(true);
                self.put_str(s);
            }
            None => self.put_bool(false),
        }
    }

    /// Finish the payload and frame it with a u32 length prefix.
    pub fn frame(mut self) -> Bytes {
        let len = (self.buf.len() - PREFIX) as u32;
        self.buf[..PREFIX].copy_from_slice(&len.to_le_bytes());
        self.buf.freeze()
    }

    /// Raw payload without framing.
    pub fn into_bytes(self) -> Bytes {
        let mut framed = self.buf.freeze();
        framed.advance(PREFIX);
        framed
    }
}

/// Bytes [`Writer::put_uvarint`] writes for `v`: one per started group of
/// seven bits.
pub(crate) fn uvarint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Bytes [`Writer::put_ivarint`] writes for `v`.
pub(crate) fn ivarint_len(v: i64) -> usize {
    uvarint_len(zigzag(v))
}

/// `v` with its sign moved to the lowest bit, so small magnitudes of
/// either sign encode short.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Decoder over a byte buffer.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    pub fn new(buf: Bytes) -> Self {
        Reader { buf }
    }

    /// Strip and validate the u32 length frame.
    pub fn unframe(mut framed: Bytes) -> Result<Self, WireError> {
        if framed.len() < 4 {
            return Err(WireError::new("frame shorter than length prefix"));
        }
        let len = framed.get_u32_le() as usize;
        if framed.len() != len {
            return Err(WireError::new(format!(
                "frame length mismatch: header says {len}, got {}",
                framed.len()
            )));
        }
        Ok(Reader { buf: framed })
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        if self.buf.is_empty() {
            return Err(WireError::new("unexpected end of buffer (u8)"));
        }
        Ok(self.buf.get_u8())
    }

    pub fn get_uvarint(&mut self) -> Result<u64, WireError> {
        let mut result = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            // The tenth byte has room for bit 63 alone.
            if shift == 63 && byte > 1 {
                return Err(WireError::new("varint overflow"));
            }
            result |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    pub fn get_ivarint(&mut self) -> Result<i64, WireError> {
        let v = self.get_uvarint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        if self.buf.len() < 8 {
            return Err(WireError::new("unexpected end of buffer (f64)"));
        }
        Ok(self.buf.get_f64_le())
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::new(format!("bad bool byte {other}"))),
        }
    }

    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_uvarint()? as usize;
        if self.buf.len() < len {
            return Err(WireError::new("unexpected end of buffer (str)"));
        }
        let parsed = std::str::from_utf8(&self.buf[..len]).map(str::to_owned);
        self.buf.advance(len);
        parsed.map_err(|_| WireError::new("invalid utf-8 in string"))
    }

    pub fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_uvarint()? as usize;
        if self.buf.len() < len {
            return Err(WireError::new("unexpected end of buffer (bytes)"));
        }
        Ok(self.buf.split_to(len))
    }

    pub fn get_opt_str(&mut self) -> Result<Option<String>, WireError> {
        if self.get_bool()? {
            Ok(Some(self.get_str()?))
        } else {
            Ok(None)
        }
    }

    /// Assert the buffer is fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::new(format!(
                "{} trailing bytes after message",
                self.buf.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uvarint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.put_uvarint(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), uvarint_len(v), "value {v}");
            let mut r = Reader::new(bytes);
            assert_eq!(r.get_uvarint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // Nine continuation bytes carry bits 0..63; the tenth may only be
        // 0 or 1. Anything above used to have its high bits shifted away,
        // so distinct byte strings decoded to one value.
        for last in [0x02u8, 0x7E, 0x7F, 0x80, 0xFF] {
            let mut bytes = vec![0xFF; 9];
            bytes.push(last);
            let err = Reader::new(Bytes::from(bytes)).get_uvarint().unwrap_err();
            assert_eq!(err.message, "varint overflow", "tenth byte {last:#x}");
        }
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        let mut r = Reader::new(Bytes::from(max));
        assert_eq!(r.get_uvarint().unwrap(), u64::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn ivarint_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            1_000_000,
            -1_000_000,
            i64::MAX,
            i64::MIN,
        ] {
            let mut w = Writer::new();
            w.put_ivarint(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), ivarint_len(v), "value {v}");
            let mut r = Reader::new(bytes);
            assert_eq!(r.get_ivarint().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn small_values_encode_small() {
        let mut w = Writer::new();
        w.put_uvarint(100);
        assert_eq!(w.into_bytes().len(), 1);
        let mut w = Writer::new();
        w.put_ivarint(-2);
        assert_eq!(w.into_bytes().len(), 1);
    }

    #[test]
    fn mixed_message_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_str("hello");
        w.put_f64(0.25);
        w.put_bool(true);
        w.put_bytes(b"blob");
        w.put_opt_str(Some("x"));
        w.put_opt_str(None);
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_f64().unwrap(), 0.25);
        assert!(r.get_bool().unwrap());
        assert_eq!(&r.get_bytes().unwrap()[..], b"blob");
        assert_eq!(r.get_opt_str().unwrap(), Some("x".into()));
        assert_eq!(r.get_opt_str().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn framing_roundtrip() {
        let mut w = Writer::new();
        w.put_str("payload");
        let framed = w.frame();
        let mut r = Reader::unframe(framed).unwrap();
        assert_eq!(r.get_str().unwrap(), "payload");
        r.finish().unwrap();
    }

    #[test]
    fn framing_errors() {
        assert!(Reader::unframe(Bytes::from_static(&[1, 2])).is_err());
        // header says 10 bytes but only 2 present
        let mut framed = BytesMut::new();
        framed.put_u32_le(10);
        framed.put_slice(&[1, 2]);
        assert!(Reader::unframe(framed.freeze()).is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.put_str("hello world");
        let bytes = w.into_bytes();
        let truncated = bytes.slice(..bytes.len() - 3);
        let mut r = Reader::new(truncated);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let mut r = Reader::new(w.into_bytes());
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        w.put_u8(9);
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(r.get_str().unwrap_err().message, "invalid utf-8 in string");
        // The bad string was consumed all the same.
        assert_eq!(r.get_u8().unwrap(), 9);
        r.finish().unwrap();
    }

    #[test]
    fn string_length_past_the_end_is_rejected_before_reading() {
        let mut w = Writer::new();
        w.put_uvarint(1_000);
        w.put_u8(b'x');
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(
            r.get_str().unwrap_err().message,
            "unexpected end of buffer (str)"
        );
        // Only the length was consumed.
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.get_u8().unwrap(), b'x');
    }

    /// One `Writer` call, for the property below.
    #[derive(Debug, Clone)]
    enum Put {
        U8(u8),
        Uvarint(u64),
        Ivarint(i64),
        F64(f64),
        Bool(bool),
        Str(String),
        Bytes(Vec<u8>),
        OptStr(Option<String>),
    }

    fn arb_string(max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<char>(), 0..max).prop_map(String::from_iter)
    }

    fn arb_put() -> impl Strategy<Value = Put> {
        prop_oneof![
            any::<u8>().prop_map(Put::U8),
            any::<u64>().prop_map(Put::Uvarint),
            any::<i64>().prop_map(Put::Ivarint),
            any::<f64>().prop_map(Put::F64),
            any::<bool>().prop_map(Put::Bool),
            arb_string(40).prop_map(Put::Str),
            proptest::collection::vec(any::<u8>(), 0..600).prop_map(Put::Bytes),
            (any::<bool>(), arb_string(12)).prop_map(|(some, s)| Put::OptStr(some.then_some(s))),
        ]
    }

    fn apply(puts: &[Put]) -> Writer {
        let mut w = Writer::new();
        for put in puts {
            match put {
                Put::U8(v) => w.put_u8(*v),
                Put::Uvarint(v) => w.put_uvarint(*v),
                Put::Ivarint(v) => w.put_ivarint(*v),
                Put::F64(v) => w.put_f64(*v),
                Put::Bool(v) => w.put_bool(*v),
                Put::Str(v) => w.put_str(v),
                Put::Bytes(v) => w.put_bytes(v),
                Put::OptStr(v) => w.put_opt_str(v.as_deref()),
            }
        }
        w
    }

    /// Framing as it was before the prefix was reserved up front: the
    /// finished payload copied behind a fresh header.
    fn frame_by_copying(payload: &[u8]) -> Vec<u8> {
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(payload);
        framed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 128 }))]

        #[test]
        fn frame_is_length_then_payload(puts in proptest::collection::vec(arb_put(), 0..12)) {
            let payload = apply(&puts).into_bytes();
            let framed = apply(&puts).frame();
            prop_assert_eq!(&framed[..], &frame_by_copying(&payload)[..]);
            // And the payload reads back as what was put.
            let mut r = Reader::unframe(framed).unwrap();
            for put in &puts {
                match put {
                    Put::U8(v) => prop_assert_eq!(r.get_u8().unwrap(), *v),
                    Put::Uvarint(v) => prop_assert_eq!(r.get_uvarint().unwrap(), *v),
                    Put::Ivarint(v) => prop_assert_eq!(r.get_ivarint().unwrap(), *v),
                    Put::F64(v) => prop_assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits()),
                    Put::Bool(v) => prop_assert_eq!(r.get_bool().unwrap(), *v),
                    Put::Str(v) => prop_assert_eq!(&r.get_str().unwrap(), v),
                    Put::Bytes(v) => prop_assert_eq!(&r.get_bytes().unwrap()[..], &v[..]),
                    Put::OptStr(v) => prop_assert_eq!(&r.get_opt_str().unwrap(), v),
                }
            }
            r.finish().unwrap();
        }
    }

    #[test]
    fn empty_writer_frames_and_unwraps_to_nothing() {
        assert_eq!(Writer::new().frame(), [0, 0, 0, 0]);
        assert!(Writer::new().into_bytes().is_empty());
        assert!(Writer::default().into_bytes().is_empty());
    }
}
