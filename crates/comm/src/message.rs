//! Message envelope and wire codec.
//!
//! Every payload exchanged between runtime components, clients, and services is wrapped
//! in a [`Message`]: a topic (what channel/queue it belongs to), a kind (what operation
//! it represents, e.g. `inference.request`), a set of headers (timings, entity
//! identifiers), and an opaque byte payload. Messages are encoded with a small
//! self-contained length-prefixed binary codec, standing in for ZeroMQ's multipart
//! frames; the codec is exercised both by the in-process transports and by the codec
//! benchmarks.
//!
//! # Strings exist on the wire, not in the process
//!
//! On the wire every field is a string. In the process a message keeps what it was
//! given: topic, kind and header keys are `Cow<'static, str>` — a constant of the
//! sending code is borrowed, never copied — and a header value is either text or a
//! number. A number set with [`Message::with_f64_header`] is read back by
//! [`Message::f64_header`] as the same `f64`, without having been printed or parsed;
//! its `{:.9}` decimal form — the one the wire carries — is produced only by
//! [`Message::encode`], [`Message::encoded_len`] and [`Message::header`] (which keeps
//! it, so that it can hand out a `&str`). Headers are kept sorted by key, which is the
//! wire order, so two messages that encode to the same frame compare equal whichever
//! way their headers were given.

use std::borrow::Cow;
use std::fmt::Write;
use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::CommError;

/// Protocol magic prefix for encoded messages.
const MAGIC: u32 = 0x4850_434D; // "HPCM"
/// Current wire version.
const VERSION: u8 = 1;
/// Hard cap on any length field to catch corrupt frames early (64 MiB).
const MAX_FIELD_LEN: usize = 64 * 1024 * 1024;

/// A header value as the process holds it (see the module docs).
#[derive(Debug, Clone)]
enum HeaderValue {
    Text(Cow<'static, str>),
    /// `text` is the wire form, rendered the first time [`Message::header`] asks.
    Number {
        value: Number,
        text: OnceLock<Box<str>>,
    },
}

/// A numeric header value; its `Display` is its wire form.
#[derive(Debug, Clone, Copy)]
enum Number {
    /// Nine decimals on the wire.
    Float(f64),
    /// Plain decimal digits on the wire.
    Unsigned(u64),
}

impl std::fmt::Display for Number {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Number::Float(value) => write!(f, "{value:.9}"),
            Number::Unsigned(value) => write!(f, "{value}"),
        }
    }
}

impl Number {
    /// The wire form, printed into a stack buffer.
    fn rendered(self) -> Rendered {
        let mut rendered = Rendered::default();
        write!(rendered, "{self}").expect("a buffer long enough for any number");
        rendered
    }

    /// Length of the wire form: the link prices every message by its encoded length,
    /// on paths that never encode.
    fn wire_len(self) -> usize {
        self.rendered().len
    }
}

impl From<Number> for HeaderValue {
    fn from(value: Number) -> Self {
        let text = OnceLock::new();
        HeaderValue::Number { value, text }
    }
}

impl HeaderValue {
    /// Length of the wire form of the value.
    fn wire_len(&self) -> usize {
        match self {
            HeaderValue::Text(text) => text.len(),
            HeaderValue::Number { value, text } => text
                .get()
                .map_or_else(|| value.wire_len(), |text| text.len()),
        }
    }

    /// Call `f` with the wire form of the value.
    fn with_wire_form<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self {
            HeaderValue::Text(text) => f(text),
            HeaderValue::Number { value, text } => match text.get() {
                Some(text) => f(text),
                None => f(value.rendered().as_str()),
            },
        }
    }
}

/// Room for the wire form of any number — the longest is the `{:.9}` form of an `f64`:
/// a sign, up to 309 integer digits, the point and nine decimals.
const RENDERED_MAX: usize = 320;

/// A stack buffer to print one number into.
struct Rendered {
    bytes: [u8; RENDERED_MAX],
    len: usize,
}

impl Default for Rendered {
    fn default() -> Self {
        Rendered {
            bytes: [0; RENDERED_MAX],
            len: 0,
        }
    }
}

impl Rendered {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("only `str`s were written")
    }
}

impl Write for Rendered {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// A self-describing message envelope.
#[derive(Debug, Clone)]
pub struct Message {
    /// Monotonic message identifier (unique per process).
    pub id: u64,
    /// Logical channel or destination (e.g. `service.llm-0`).
    pub topic: Cow<'static, str>,
    /// Operation (e.g. `inference.request`, `state.update`, `control.stop`).
    pub kind: Cow<'static, str>,
    /// Key/value metadata (timings, entity ids, model names), sorted by key, one entry
    /// per key.
    headers: Vec<(Cow<'static, str>, HeaderValue)>,
    /// Opaque payload bytes.
    pub payload: Bytes,
}

/// Two messages are equal when they encode to the same frame: a number equals the
/// text of its wire form.
impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.topic == other.topic
            && self.kind == other.kind
            && self.payload == other.payload
            && self.headers.len() == other.headers.len()
            && self
                .headers
                .iter()
                .zip(&other.headers)
                .all(|(a, b)| a.0 == b.0 && a.1.with_wire_form(|a| b.1.with_wire_form(|b| a == b)))
    }
}

impl Eq for Message {}

impl Message {
    /// Create a message with the given topic and kind, empty headers and payload.
    /// A `&'static str` is borrowed, a `String` is kept.
    pub fn new(topic: impl Into<Cow<'static, str>>, kind: impl Into<Cow<'static, str>>) -> Self {
        Message {
            id: hpcml_sim::ids::next_uid(),
            topic: topic.into(),
            kind: kind.into(),
            headers: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// Attach a payload.
    pub fn with_payload(mut self, payload: impl Into<Bytes>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Attach a UTF-8 text payload.
    pub fn with_text(self, text: &str) -> Self {
        self.with_payload(Bytes::copy_from_slice(text.as_bytes()))
    }

    /// Make room for `headers` more headers in one allocation, for a sender that knows
    /// how many it is about to add (a `Vec` grown one header at a time gets there in
    /// three).
    pub fn with_header_room(mut self, headers: usize) -> Self {
        self.headers.reserve_exact(headers);
        self
    }

    /// Add one header, replacing an earlier one of the same key.
    pub fn with_header(
        mut self,
        key: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.set_header(key.into(), HeaderValue::Text(value.into()));
        self
    }

    /// Add a floating-point header. On the wire it is its `{:.9}` decimal
    /// representation; in the process it stays the number.
    pub fn with_f64_header(mut self, key: impl Into<Cow<'static, str>>, value: f64) -> Self {
        self.set_header(key.into(), Number::Float(value).into());
        self
    }

    /// Add an integer header (a count, a size). On the wire it is its decimal digits —
    /// what `value.to_string()` as a text header would be; in the process it stays the
    /// number.
    pub fn with_u64_header(mut self, key: impl Into<Cow<'static, str>>, value: u64) -> Self {
        self.set_header(key.into(), Number::Unsigned(value).into());
        self
    }

    fn set_header(&mut self, key: Cow<'static, str>, value: HeaderValue) {
        match self.headers.binary_search_by(|(k, _)| (**k).cmp(&*key)) {
            Ok(at) => self.headers[at].1 = value,
            Err(at) => self.headers.insert(at, (key, value)),
        }
    }

    fn header_value(&self, key: &str) -> Option<&HeaderValue> {
        let at = self
            .headers
            .binary_search_by(|(k, _)| (**k).cmp(key))
            .ok()?;
        Some(&self.headers[at].1)
    }

    /// Read a header as text: a number reads as its wire form.
    pub fn header(&self, key: &str) -> Option<&str> {
        Some(match self.header_value(key)? {
            HeaderValue::Text(text) => text,
            HeaderValue::Number { value, text } => {
                text.get_or_init(|| value.to_string().into_boxed_str())
            }
        })
    }

    /// Read a floating-point header: the number it was set as, or the parse of its
    /// text.
    pub fn f64_header(&self, key: &str) -> Option<f64> {
        match self.header_value(key)? {
            HeaderValue::Text(text) => text.parse().ok(),
            HeaderValue::Number { value, .. } => Some(match *value {
                Number::Float(value) => value,
                Number::Unsigned(value) => value as f64,
            }),
        }
    }

    /// Interpret the payload as UTF-8 text.
    pub fn text(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }

    /// Payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Exact encoded size: [`Message::encode`] writes precisely this many bytes, so the
    /// encode buffer is sized once and never reallocates. Also used for bandwidth
    /// modelling.
    pub fn encoded_len(&self) -> usize {
        let headers: usize = self
            .headers
            .iter()
            .map(|(k, v)| 8 + k.len() + v.wire_len())
            .sum();
        4 + 1
            + 8
            + 4
            + self.topic.len()
            + 4
            + self.kind.len()
            + 4
            + headers
            + 4
            + self.payload.len()
    }

    /// Encode to the binary wire format.
    pub fn encode(&self) -> Bytes {
        self.encode_into(&mut BytesMut::new())
    }

    /// Encode into a caller-owned scratch buffer and detach the frame.
    ///
    /// The hot-path variant of [`Message::encode`]: `buf` is reserved to the exact
    /// [`Message::encoded_len`] (so the write never reallocates) and the written
    /// frame is detached with `split().freeze()`, leaving `buf`'s allocation behind
    /// for the next message. A sender encoding a stream of messages through one
    /// scratch buffer stops paying per-message buffer growth.
    pub fn encode_into(&self, buf: &mut BytesMut) -> Bytes {
        let exact_len = self.encoded_len();
        debug_assert!(buf.is_empty(), "scratch buffer must start empty");
        buf.reserve(exact_len);
        buf.put_u32(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64(self.id);
        put_str(buf, &self.topic);
        put_str(buf, &self.kind);
        buf.put_u32(self.headers.len() as u32);
        for (k, v) in &self.headers {
            put_str(buf, k);
            v.with_wire_form(|v| put_str(buf, v));
        }
        buf.put_u32(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        debug_assert_eq!(buf.len(), exact_len, "encoded_len must be exact");
        buf.split().freeze()
    }

    /// Decode from the binary wire format.
    pub fn decode(mut data: Bytes) -> Result<Self, CommError> {
        if data.remaining() < 4 + 1 + 8 {
            return Err(CommError::Codec("frame too short".into()));
        }
        let magic = data.get_u32();
        if magic != MAGIC {
            return Err(CommError::Codec(format!("bad magic 0x{magic:08x}")));
        }
        let version = data.get_u8();
        if version != VERSION {
            return Err(CommError::Codec(format!("unsupported version {version}")));
        }
        let id = data.get_u64();
        let topic = get_str(&mut data)?;
        let kind = get_str(&mut data)?;
        if data.remaining() < 4 {
            return Err(CommError::Codec("truncated header count".into()));
        }
        let n_headers = data.get_u32() as usize;
        if n_headers > MAX_FIELD_LEN {
            return Err(CommError::Codec("header count too large".into()));
        }
        let mut headers = Vec::with_capacity(n_headers.min(64));
        for _ in 0..n_headers {
            let k = get_str(&mut data)?;
            let v = get_str(&mut data)?;
            headers.push((k.into(), HeaderValue::Text(v.into())));
        }
        let mut msg = Message {
            id,
            topic: topic.into(),
            kind: kind.into(),
            headers: in_key_order(headers),
            payload: Bytes::new(),
        };
        if data.remaining() < 4 {
            return Err(CommError::Codec("truncated payload length".into()));
        }
        let payload_len = data.get_u32() as usize;
        if payload_len > MAX_FIELD_LEN || data.remaining() < payload_len {
            return Err(CommError::Codec("truncated payload".into()));
        }
        // Zero copy: the payload is a sub-view of the input buffer, not a fresh
        // allocation (`Bytes::copy_to_bytes` on `Bytes` slices the backing storage).
        msg.payload = data.copy_to_bytes(payload_len);
        Ok(msg)
    }

    /// Decode a borrowed, zero-allocation view of an encoded frame.
    ///
    /// Unlike [`Message::decode`], nothing is copied or heap-allocated: topic, kind,
    /// header keys/values, and payload all borrow directly from `data`. Use this on hot
    /// read paths (routing, header inspection) and call [`MessageView::to_message`]
    /// only when an owned envelope is actually needed.
    pub fn decode_view(data: &[u8]) -> Result<MessageView<'_>, CommError> {
        let mut cur = Cursor { data, at: 0 };
        let magic = cur.u32()?;
        if magic != MAGIC {
            return Err(CommError::Codec(format!("bad magic 0x{magic:08x}")));
        }
        let version = cur.u8()?;
        if version != VERSION {
            return Err(CommError::Codec(format!("unsupported version {version}")));
        }
        let id = cur.u64()?;
        let topic = cur.str_field()?;
        let kind = cur.str_field()?;
        let n_headers = cur.u32()? as usize;
        if n_headers > MAX_FIELD_LEN {
            return Err(CommError::Codec("header count too large".into()));
        }
        let mut headers = Vec::with_capacity(n_headers.min(64));
        let mut sorted = true;
        for _ in 0..n_headers {
            let k = cur.str_field()?;
            let v = cur.str_field()?;
            if let Some((prev, _)) = headers.last() {
                sorted &= *prev < k;
            }
            headers.push((k, v));
        }
        let payload_len = cur.u32()? as usize;
        if payload_len > MAX_FIELD_LEN {
            return Err(CommError::Codec("truncated payload".into()));
        }
        let payload = cur.bytes_field(payload_len)?;
        Ok(MessageView {
            id,
            topic,
            kind,
            headers,
            sorted_headers: sorted,
            payload,
        })
    }
}

/// Borrowed decode of one encoded frame: every field points into the source buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageView<'a> {
    /// Monotonic message identifier.
    pub id: u64,
    /// Logical channel or destination.
    pub topic: &'a str,
    /// Operation kind.
    pub kind: &'a str,
    /// Header key/value pairs in wire order.
    headers: Vec<(&'a str, &'a str)>,
    /// Whether the wire order was strictly key-sorted (always true for frames produced
    /// by [`Message::encode`], which keeps its headers that way).
    sorted_headers: bool,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Read a header without allocating. Frames from [`Message::encode`] carry
    /// key-sorted headers and get a binary search; a foreign frame with unsorted
    /// headers falls back to a linear scan (first match wins) instead of silently
    /// missing present keys.
    pub fn header(&self, key: &str) -> Option<&'a str> {
        if self.sorted_headers {
            self.headers
                .binary_search_by(|(k, _)| (*k).cmp(key))
                .ok()
                .map(|idx| self.headers[idx].1)
        } else {
            self.headers
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
        }
    }

    /// Read a floating-point header.
    pub fn f64_header(&self, key: &str) -> Option<f64> {
        self.header(key).and_then(|v| v.parse().ok())
    }

    /// All header pairs, in wire order (key-sorted for frames from
    /// [`Message::encode`]; foreign frames may carry any order).
    pub fn headers(&self) -> &[(&'a str, &'a str)] {
        &self.headers
    }

    /// Interpret the payload as UTF-8 text.
    pub fn text(&self) -> Option<&'a str> {
        std::str::from_utf8(self.payload).ok()
    }

    /// Materialise an owned [`Message`] (copies; use only off the hot path).
    pub fn to_message(&self) -> Message {
        let headers = self
            .headers
            .iter()
            .map(|(k, v)| {
                let value = HeaderValue::Text(v.to_string().into());
                (k.to_string().into(), value)
            })
            .collect();
        Message {
            id: self.id,
            topic: self.topic.to_string().into(),
            kind: self.kind.to_string().into(),
            headers: in_key_order(headers),
            payload: Bytes::copy_from_slice(self.payload),
        }
    }
}

/// Borrowing cursor over an encoded frame.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CommError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or_else(|| CommError::Codec("frame too short".into()))?;
        if end > self.data.len() {
            return Err(CommError::Codec("frame too short".into()));
        }
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CommError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CommError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CommError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn bytes_field(&mut self, len: usize) -> Result<&'a [u8], CommError> {
        if len > MAX_FIELD_LEN {
            return Err(CommError::Codec("truncated string".into()));
        }
        self.take(len)
    }

    fn str_field(&mut self) -> Result<&'a str, CommError> {
        let len = self.u32()? as usize;
        let raw = self.bytes_field(len)?;
        std::str::from_utf8(raw).map_err(|_| CommError::Codec("invalid utf-8".into()))
    }
}

/// Headers as a frame gave them, brought into a [`Message`]'s order: sorted by key,
/// and of two with one key the later (as if each had been set in turn). A frame from
/// [`Message::encode`] is in that order already; any other costs one sort.
fn in_key_order(
    mut headers: Vec<(Cow<'static, str>, HeaderValue)>,
) -> Vec<(Cow<'static, str>, HeaderValue)> {
    if !headers.windows(2).all(|pair| pair[0].0 < pair[1].0) {
        headers.sort_by(|a, b| a.0.cmp(&b.0));
        headers.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
    }
    headers
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(data: &mut Bytes) -> Result<String, CommError> {
    if data.remaining() < 4 {
        return Err(CommError::Codec("truncated string length".into()));
    }
    let len = data.get_u32() as usize;
    if len > MAX_FIELD_LEN || data.remaining() < len {
        return Err(CommError::Codec("truncated string".into()));
    }
    let raw = data.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CommError::Codec("invalid utf-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        Message::new("service.llm-0", "inference.request")
            .with_header("client", "task.000003")
            .with_f64_header("sent_at", 12.25)
            .with_text("What is the effect of low-dose radiation on cell morphology?")
    }

    #[test]
    fn builder_and_accessors() {
        let m = sample();
        assert_eq!(m.topic, "service.llm-0");
        assert_eq!(m.kind, "inference.request");
        assert_eq!(m.header("client"), Some("task.000003"));
        assert_eq!(m.f64_header("sent_at"), Some(12.25));
        assert_eq!(m.f64_header("missing"), None);
        assert!(m.text().unwrap().starts_with("What is"));
        assert!(m.payload_len() > 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let encoded = m.encode();
        assert_eq!(
            encoded.len(),
            m.encoded_len(),
            "encoded_len is exact, not approximate"
        );
        let decoded = Message::decode(encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn the_frame_is_the_one_string_headers_made() {
        // Built by hand, field by field, the way the codec has always laid it out:
        // headers in key order, a number as its `{:.9}` text.
        let m = sample();
        let mut buf = BytesMut::new();
        buf.put_u32(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64(m.id);
        put_str(&mut buf, "service.llm-0");
        put_str(&mut buf, "inference.request");
        buf.put_u32(2);
        put_str(&mut buf, "client");
        put_str(&mut buf, "task.000003");
        put_str(&mut buf, "sent_at");
        put_str(&mut buf, "12.250000000");
        let text = "What is the effect of low-dose radiation on cell morphology?";
        buf.put_u32(text.len() as u32);
        buf.put_slice(text.as_bytes());
        assert_eq!(m.encode(), buf.freeze());
    }

    #[test]
    fn a_number_header_stays_a_number_in_the_process_and_is_text_on_the_wire() {
        let third = 1.0 / 3.0;
        let m = Message::new("t", "k").with_f64_header("x", third);
        assert_eq!(m.f64_header("x"), Some(third), "neither printed nor parsed");
        assert_eq!(m.header("x"), Some("0.333333333"));
        let mut as_text = Message::new("t", "k").with_header("x", "0.333333333");
        as_text.id = m.id;
        assert_eq!(m.encode(), as_text.encode());
        assert_eq!(m, as_text, "equal as frames");
        assert_eq!(Message::decode(m.encode()).unwrap(), m);
        assert_eq!(as_text.f64_header("x"), Some(0.333333333));
        // An integer is its digits, as `to_string()` made them.
        let mut n = Message::new("t", "k").with_u64_header("n", 16);
        assert_eq!((n.header("n"), n.f64_header("n")), (Some("16"), Some(16.0)));
        n.id = m.id;
        let mut n_as_text = Message::new("t", "k").with_header("n", 16.to_string());
        n_as_text.id = m.id;
        assert_eq!(n.encode(), n_as_text.encode());
        assert_eq!(n.encode().len(), n.encoded_len());
        // Every f64 has a wire form, and `encoded_len` knows its length.
        for value in [
            0.0,
            -0.0,
            1e-12,
            123_456_789.987_654_33,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let m = Message::new("t", "k").with_f64_header("v", value);
            let frame = m.encode();
            assert_eq!(frame.len(), m.encoded_len(), "{value}");
            let view = Message::decode_view(&frame).unwrap();
            assert_eq!(view.header("v"), Some(format!("{value:.9}").as_str()));
            assert_eq!(m.header("v"), view.header("v"));
        }
    }

    #[test]
    fn headers_are_kept_in_key_order_one_per_key() {
        let a = Message::new("t", "k")
            .with_header("zeta", "1")
            .with_f64_header("mid", 2.0)
            .with_header("alpha", "3")
            .with_header("zeta", "4");
        let mut b = Message::new("t", "k")
            .with_header("alpha", "3")
            .with_header("mid", "2.000000000")
            .with_header("zeta", "4");
        b.id = a.id;
        assert_eq!(a.headers.len(), 3);
        assert_eq!(
            a.header("zeta"),
            Some("4"),
            "the later value replaced the earlier"
        );
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
        let view_frame = a.encode();
        let view = Message::decode_view(&view_frame).unwrap();
        let keys: Vec<&str> = view.headers().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn encode_into_reuses_the_scratch_buffer() {
        let mut scratch = BytesMut::new();
        let frames: Vec<Bytes> = (0..4)
            .map(|i| {
                Message::new("t", "k")
                    .with_text(&format!("payload-{i}"))
                    .encode_into(&mut scratch)
            })
            .collect();
        for (i, frame) in frames.iter().enumerate() {
            let decoded = Message::decode(frame.clone()).unwrap();
            assert_eq!(decoded.text(), Some(format!("payload-{i}").as_str()));
        }
        // The scratch is empty between messages and identical to the one-shot path.
        let m = sample();
        assert_eq!(m.encode_into(&mut scratch), m.encode());
    }

    #[test]
    fn decode_view_matches_owned_decode() {
        let m = sample();
        let encoded = m.encode();
        let view = Message::decode_view(&encoded).unwrap();
        assert_eq!(view.id, m.id);
        assert_eq!(view.topic, m.topic);
        assert_eq!(view.kind, m.kind);
        assert_eq!(view.header("client"), Some("task.000003"));
        assert_eq!(view.f64_header("sent_at"), Some(12.25));
        assert_eq!(view.header("missing"), None);
        assert_eq!(view.text(), m.text());
        assert_eq!(view.headers().len(), m.headers.len());
        assert_eq!(view.to_message(), m);
    }

    #[test]
    fn decode_view_borrows_from_the_buffer() {
        let m = sample();
        let encoded = m.encode();
        let view = Message::decode_view(&encoded).unwrap();
        let buf_range = encoded.as_ptr() as usize..encoded.as_ptr() as usize + encoded.len();
        assert!(
            buf_range.contains(&(view.topic.as_ptr() as usize)),
            "topic borrows"
        );
        assert!(
            buf_range.contains(&(view.payload.as_ptr() as usize)),
            "payload borrows"
        );
    }

    #[test]
    fn decode_view_handles_unsorted_foreign_headers() {
        // Hand-build a frame whose headers are NOT key-sorted (a foreign encoder).
        let mut buf = BytesMut::new();
        buf.put_u32(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64(7);
        put_str(&mut buf, "t");
        put_str(&mut buf, "k");
        buf.put_u32(3);
        put_str(&mut buf, "zeta");
        put_str(&mut buf, "1");
        put_str(&mut buf, "alpha");
        put_str(&mut buf, "2");
        put_str(&mut buf, "zeta");
        put_str(&mut buf, "3");
        buf.put_u32(0);
        let raw = buf.freeze();
        let view = Message::decode_view(&raw).unwrap();
        assert_eq!(
            view.header("alpha"),
            Some("2"),
            "unsorted frames must still resolve keys"
        );
        assert_eq!(view.header("zeta"), Some("1"), "first match wins in a view");
        assert_eq!(view.header("missing"), None);
        // An owned message keeps one entry per key, in key order: the later value, as
        // if each header had been set in turn.
        for owned in [Message::decode(raw.clone()).unwrap(), view.to_message()] {
            assert_eq!(owned.header("alpha"), Some("2"));
            assert_eq!(owned.header("zeta"), Some("3"));
            let reencoded = owned.encode();
            let headers = Message::decode_view(&reencoded).unwrap();
            assert_eq!(headers.headers(), &[("alpha", "2"), ("zeta", "3")]);
        }
    }

    #[test]
    fn decode_view_rejects_garbage_and_truncation() {
        assert!(Message::decode_view(b"xx").is_err());
        assert!(Message::decode_view(&[0u8; 64]).is_err());
        let raw = sample().encode();
        for cut in [0, 5, 13, 20, raw.len() - 1] {
            assert!(
                Message::decode_view(&raw[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut bad_version = raw.to_vec();
        bad_version[4] = 99;
        assert!(Message::decode_view(&bad_version).is_err());
    }

    #[test]
    fn roundtrip_empty_message() {
        let m = Message::new("", "");
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.payload_len(), 0);
    }

    #[test]
    fn roundtrip_binary_payload() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let m = Message::new("t", "k").with_payload(payload.clone());
        let decoded = Message::decode(m.encode()).unwrap();
        assert_eq!(&decoded.payload[..], &payload[..]);
        assert!(
            decoded.text().is_none(),
            "binary payload is not valid UTF-8"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Message::decode(Bytes::from_static(b"xx")),
            Err(CommError::Codec(_))
        ));
        assert!(matches!(
            Message::decode(Bytes::from_static(&[0u8; 64])),
            Err(CommError::Codec(_))
        ));
        // Corrupt a valid frame's magic.
        let mut raw = sample().encode().to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(
            Message::decode(Bytes::from(raw)),
            Err(CommError::Codec(_))
        ));
    }

    #[test]
    fn decode_rejects_truncated_frames() {
        let raw = sample().encode();
        for cut in [5, 13, 20, raw.len() - 1] {
            let truncated = raw.slice(0..cut.min(raw.len()));
            assert!(
                Message::decode(truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut raw = sample().encode().to_vec();
        raw[4] = 99;
        assert!(
            matches!(Message::decode(Bytes::from(raw)), Err(CommError::Codec(msg)) if msg.contains("version"))
        );
    }

    #[test]
    fn message_ids_are_unique() {
        let a = Message::new("t", "k");
        let b = Message::new("t", "k");
        assert_ne!(a.id, b.id);
    }
}
