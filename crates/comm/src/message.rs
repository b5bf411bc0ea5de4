//! Message envelope.
//!
//! Every payload exchanged between runtime components, clients, and services is wrapped
//! in a [`Message`]: a topic (what channel/queue it belongs to), a kind (what operation
//! it represents, e.g. `inference.request`), a set of headers (timings, entity
//! identifiers), and a [`Payload`]. Messages never leave the process: the request/reply
//! endpoints move them, and pub/sub shares one `Arc<Message>` among its subscribers.
//! What a message would weigh on a ZeroMQ-style length-prefixed wire,
//! [`Message::encoded_len`], is what a [`crate::link::Link`] prices a hop by.
//!
//! # Values stay values
//!
//! A payload is bytes (a reply's text) or a value shared with its sender (an inference
//! request), which is handed over as it is and never encoded: its sender declares what
//! it would weigh on the wire, and that is what the message is priced by.
//!
//! # Numbers stay numbers
//!
//! A message keeps what it was given: topic, kind and header keys are
//! `Cow<'static, str>` — a constant of the sending code is borrowed, never copied — and
//! a header value is either text or a number. A number set with
//! [`Message::with_f64_header`] is read back by [`Message::f64_header`] as the same
//! `f64`, without having been printed or parsed; its `{:.9}` decimal *wire form* is
//! produced only by [`Message::encoded_len`] (to count it) and [`Message::header`]
//! (which keeps it, so that it can hand out a `&str`). Headers are kept sorted by key,
//! and two messages compare equal when their wire forms would, whichever way their
//! headers were given.

use std::any::Any;
use std::borrow::Cow;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

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
}

impl From<Number> for HeaderValue {
    fn from(value: Number) -> Self {
        let text = OnceLock::new();
        HeaderValue::Number { value, text }
    }
}

impl HeaderValue {
    /// Length of the wire form of the value; a number not yet rendered for
    /// [`Message::header`] is printed into a stack buffer to be counted.
    fn wire_len(&self) -> usize {
        self.with_wire_form(str::len)
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

/// What a message carries (see the module docs).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Opaque bytes, on the wire as they are.
    Bytes(Bytes),
    /// A value shared with its sender, never encoded.
    Value {
        /// The value.
        value: Arc<dyn Any + Send + Sync>,
        /// What its sender declares the value would weigh on the wire, in bytes.
        wire_len: usize,
    },
}

impl Payload {
    /// Bytes the payload takes on the wire: the length of the bytes, or the declared
    /// length of the value.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Bytes(bytes) => bytes.len(),
            Payload::Value { wire_len, .. } => *wire_len,
        }
    }

    /// The value, if the payload is a `T`.
    pub fn downcast<T: Any + Send + Sync>(self) -> Option<Arc<T>> {
        match self {
            Payload::Value { value, .. } => value.downcast().ok(),
            Payload::Bytes(_) => None,
        }
    }
}

/// Bytes are equal by content, values by identity.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Payload::Bytes(a), Payload::Bytes(b)) => a == b,
            (
                Payload::Value { value: a, wire_len },
                Payload::Value {
                    value: b,
                    wire_len: len,
                },
            ) => Arc::ptr_eq(a, b) && wire_len == len,
            _ => false,
        }
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
    /// What the message carries.
    pub payload: Payload,
}

/// Two messages are equal when their wire forms would be: a number equals the text of
/// its wire form.
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
            payload: Payload::Bytes(Bytes::new()),
        }
    }

    /// Attach a byte payload.
    pub fn with_payload(mut self, payload: impl Into<Bytes>) -> Self {
        self.payload = Payload::Bytes(payload.into());
        self
    }

    /// Attach a shared value, priced as `wire_len` bytes on the wire.
    pub fn with_value<T: Any + Send + Sync>(mut self, value: Arc<T>, wire_len: usize) -> Self {
        self.payload = Payload::Value { value, wire_len };
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

    /// Interpret a byte payload as UTF-8 text.
    pub fn text(&self) -> Option<&str> {
        match &self.payload {
            Payload::Bytes(bytes) => std::str::from_utf8(bytes).ok(),
            Payload::Value { .. } => None,
        }
    }

    /// Payload size on the wire, in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.wire_len()
    }

    /// Exact size of the message on the wire: a 4-byte magic, a version byte, the
    /// 8-byte id, then topic, kind, each header key and value and the payload, each
    /// after a 4-byte length (the headers after a 4-byte count), a number in its wire
    /// form; a value payload counts the length its sender declared. The message is never
    /// encoded; the link prices a hop by this size.
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
            + self.payload.wire_len()
    }
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
        let binary = Message::new("t", "k").with_payload((0..=255u8).collect::<Vec<u8>>());
        assert_eq!(binary.payload_len(), 256);
        assert!(binary.text().is_none(), "binary payload is not valid UTF-8");
    }

    #[test]
    fn encoded_len_is_the_hand_counted_wire_size() {
        // Fixed part: magic 4 + version 1 + id 8 + four 4-byte lengths (topic, kind,
        // header count, payload) = 29; each header adds 8 for its two lengths.
        assert_eq!(Message::new("", "").encoded_len(), 29);
        // 29 + "service.llm-0" 13 + "inference.request" 17
        //    + 8 + "client" 6 + "task.000003" 11
        //    + 8 + "sent_at" 7 + "12.250000000" 12
        //    + the 60-byte question = 171.
        assert_eq!(sample().encoded_len(), 171);
        // 29 + "t" 1 + "k" 1 + 8 + "x" 1 + "0.333333333" 11 = 51.
        let third = Message::new("t", "k").with_f64_header("x", 1.0 / 3.0);
        assert_eq!(third.encoded_len(), 51);
        // f64::MAX: 309 integer digits, the point and nine decimals.
        let max = Message::new("t", "k").with_f64_header("x", f64::MAX);
        assert_eq!(max.encoded_len(), 40 + 319);
        // Reading a number as text renders it once; the length stays.
        assert_eq!(third.header("x"), Some("0.333333333"));
        assert_eq!(third.encoded_len(), 51);
    }

    #[test]
    fn a_value_payload_is_shared_and_priced_at_its_declared_length() {
        let value = Arc::new(String::from("never encoded"));
        let m = Message::new("t", "k").with_value(Arc::clone(&value), 100);
        // 29 + "t" 1 + "k" 1 + the declared 100.
        assert_eq!((m.encoded_len(), m.payload_len()), (131, 100));
        assert_eq!(m.text(), None, "a value is not text");
        let copy = m.clone();
        assert_eq!(m, copy, "clones share the value");
        let mut other = Message::new("t", "k").with_value(Arc::new(value.to_string()), 100);
        other.id = m.id;
        assert_ne!(m, other, "values compare by identity");
        assert!(m.payload.clone().downcast::<u64>().is_none(), "not a `u64`");
        let back = m.payload.downcast::<String>().expect("a `String`");
        assert!(Arc::ptr_eq(&back, &value), "the sender's value, not a copy");
        assert!(Message::new("t", "k")
            .payload
            .downcast::<String>()
            .is_none());
    }

    #[test]
    fn a_number_header_stays_a_number_and_equals_its_wire_form() {
        let third = 1.0 / 3.0;
        let m = Message::new("t", "k").with_f64_header("x", third);
        assert_eq!(m.f64_header("x"), Some(third), "neither printed nor parsed");
        let mut as_text = Message::new("t", "k").with_header("x", "0.333333333");
        as_text.id = m.id;
        assert_eq!(m, as_text, "equal as wire forms");
        assert_eq!(m.encoded_len(), as_text.encoded_len());
        assert_eq!(m.header("x"), Some("0.333333333"));
        assert_eq!(as_text.f64_header("x"), Some(0.333333333));
        // An integer is its digits, as `to_string()` made them.
        let mut n = Message::new("t", "k").with_u64_header("n", 16);
        assert_eq!((n.header("n"), n.f64_header("n")), (Some("16"), Some(16.0)));
        n.id = m.id;
        let mut n_as_text = Message::new("t", "k").with_header("n", 16.to_string());
        n_as_text.id = m.id;
        assert_eq!(n, n_as_text);
        assert_eq!(n.encoded_len(), n_as_text.encoded_len());
        // Every f64 has a wire form, and `encoded_len` knows its length before and
        // after `header` renders it.
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
            let wire = format!("{value:.9}");
            let m = Message::new("t", "k").with_f64_header("v", value);
            let as_text = Message::new("t", "k").with_header("v", wire.clone());
            assert_eq!(m.encoded_len(), as_text.encoded_len(), "{value}");
            assert_eq!(m.header("v"), Some(wire.as_str()));
            assert_eq!(m.encoded_len(), as_text.encoded_len(), "{value}");
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
        assert_eq!(
            a.header("zeta"),
            Some("4"),
            "the later value replaced the earlier"
        );
        assert_eq!(a, b);
        let keys: Vec<&str> = a.headers.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn message_ids_are_unique() {
        let a = Message::new("t", "k");
        let b = Message::new("t", "k");
        assert_ne!(a.id, b.id);
    }
}
