//! A small, deterministic wire codec.
//!
//! The fail-signal comparison logic (paper §2.1) checks whether the two
//! replicas of an FS process produced *identical* outputs; the NewTOP
//! invocation layer marshals application payloads into a generic container
//! (CORBA `any` in the original system).  Both need a byte-exact, canonical
//! encoding, which this module provides: little-endian fixed-width integers
//! and length-prefixed byte strings, with no padding and no
//! platform-dependent layout.
//!
//! The codec is intentionally independent of `serde` so that the bytes fed to
//! the signature routines in `fs-crypto` are stable across compiler versions
//! and struct layout changes.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::CodecError;
use crate::id::{MemberId, MsgId, ProcessId};

/// Maximum length accepted for a single length-prefixed field (16 MiB).
///
/// The paper's experiments use payloads up to 10 kB; the cap exists purely to
/// stop a corrupted length prefix from causing a huge allocation.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// The smallest byte-string field a frame encoder splices in by refcount
/// instead of copying (see [`Frame`]).
///
/// Chosen from the measured crossover.  With this constant lowered to 32,
/// the `hotpath` `frame_path` round (one output through a wrapper pair and
/// a destination; spliced ÷ contiguous nanoseconds) reads 0.98–1.09 at
/// 64 B, 0.96 at 128–256 B, 0.81–0.95 at 512 B, 0.8 at 1 KiB and 0.7 at
/// 2 KiB: a spliced frame pays one extra small allocation (the segment
/// table), a few refcount operations and part-wise hashing, which is a wash
/// against a `memcpy` of a few hundred bytes and a clear win from somewhere
/// between 512 B and 1 KiB.  1 KiB takes the win where it is unambiguous
/// and leaves every frame of the small-payload workloads — 3-byte requests,
/// 152-byte batches, their envelopes — on the contiguous path, unchanged.
const SPLICE_MIN: usize = 1024;

/// Initial head capacity of a splicing encoder whose frame is large enough
/// to splice: every fail-signal header and trailer fits, with the head and
/// tail of a machine's rope spliced inside them.
const SPLICE_HEAD_CAPACITY: usize = 256;

/// True when the logical concatenations of `a` and `b` hold the same bytes,
/// whatever their split points.  Stretches that are the very same memory
/// (one refcounted buffer seen through two lists) are not compared byte by
/// byte.
pub fn segments_eq(a: &[&[u8]], b: &[&[u8]]) -> bool {
    unshared_len_if_eq(a, b).is_some()
}

/// [`segments_eq`], counting: `Some(n)` when `a` and `b` hold the same
/// bytes, `n` of them in different memory (the bytes a comparison had to
/// read); `None` when they differ.
pub fn unshared_len_if_eq(a: &[&[u8]], b: &[&[u8]]) -> Option<usize> {
    let total = |parts: &[&[u8]]| parts.iter().map(|p| p.len()).sum::<usize>();
    if total(a) != total(b) {
        return None;
    }
    let (mut rest_a, mut rest_b) = (a.iter(), b.iter());
    let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
    let mut unshared = 0;
    loop {
        while x.is_empty() {
            match rest_a.next() {
                Some(part) => x = part,
                // Equal totals: `b` has only empty stretches left.
                None => return Some(unshared),
            }
        }
        while y.is_empty() {
            match rest_b.next() {
                Some(part) => y = part,
                None => return Some(unshared),
            }
        }
        let n = x.len().min(y.len());
        if !std::ptr::eq(x.as_ptr(), y.as_ptr()) {
            if x[..n] != y[..n] {
                return None;
            }
            unshared += n;
        }
        (x, y) = (&x[n..], &y[n..]);
    }
}

/// A wire frame as the transport carries it: one contiguous [`Bytes`], or a
/// three-segment rope `head ‖ body ‖ tail` whose `body` is a refcount of a
/// byte string the sender already held.
///
/// Every frame that carries a payload (a request, a machine's `Data` or
/// upcall, a fail-signal envelope) wraps exactly one opaque byte string in
/// a few header and trailer bytes.  Copying that string into each new
/// frame is what made a 10 kB delivery move its payload some thirty times;
/// a frame encoder ([`Wire::to_frame`]) instead splices a large field in as
/// `body` and writes only the bytes around it.
/// The logical content is always the concatenation of the segments:
/// [`Frame::to_bytes`] of a spliced frame equals [`Wire::to_wire`] byte for
/// byte, `len()` is the wire length, and the decoder ([`Wire::from_frame`])
/// yields the same value — and the same errors — as decoding the contiguous
/// bytes, handing out zero-copy views of whichever segment a field lies in.
///
/// `Bytes`, `Vec<u8>` and `&[u8]` convert into a one-segment frame for free
/// (the latter by copying, like `Bytes::from`).
#[derive(Clone, Default)]
pub struct Frame {
    head: Bytes,
    /// `[body, tail]` of a spliced frame; `None` for a contiguous one.
    rest: Option<Arc<[Bytes; 2]>>,
}

impl Frame {
    /// Builds a frame from explicit segments (any of which may be empty).
    /// The encoder never needs this; tests and adversaries do — a receiver
    /// must treat every segmentation of the same bytes alike.
    pub fn from_segments(head: Bytes, body: Bytes, tail: Bytes) -> Self {
        if body.is_empty() && tail.is_empty() {
            return head.into();
        }
        Self {
            head,
            rest: Some(Arc::new([body, tail])),
        }
    }

    /// The wire length: the sum of the segment lengths.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len() + self.later().iter().map(Bytes::len).sum::<usize>()
    }

    /// True when the frame holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the frame is a single segment.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.rest.is_none()
    }

    /// The segments, absent ones skipped, in wire order.
    #[inline]
    fn parts(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.head).chain(self.later())
    }

    /// The segments after the first.
    #[inline]
    fn later(&self) -> &[Bytes] {
        match &self.rest {
            Some(rest) => &rest[..],
            None => &[],
        }
    }

    /// The three segments as slices (absent ones empty), in wire order.
    #[inline]
    pub fn segments(&self) -> [&[u8]; 3] {
        match &self.rest {
            Some(rest) => [&self.head, &rest[0], &rest[1]],
            None => [&self.head, &[], &[]],
        }
    }

    /// The frame as one contiguous buffer: a refcount clone when it already
    /// is one, a copy of the segments otherwise.
    pub fn to_bytes(&self) -> Bytes {
        if self.is_contiguous() {
            return self.head.clone();
        }
        let mut flat = Vec::with_capacity(self.len());
        for segment in self.segments() {
            flat.extend_from_slice(segment);
        }
        flat.into()
    }

    /// The logical bytes copied into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.segments().concat()
    }

    /// [`Frame::to_bytes`], consuming the frame.
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        if self.is_contiguous() {
            self.head
        } else {
            self.to_bytes()
        }
    }
}

impl From<Bytes> for Frame {
    #[inline]
    fn from(head: Bytes) -> Self {
        Self { head, rest: None }
    }
}

impl From<Vec<u8>> for Frame {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(v).into()
    }
}

impl From<String> for Frame {
    fn from(v: String) -> Self {
        Bytes::from(v).into()
    }
}

impl From<&[u8]> for Frame {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v).into()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.segments().into_iter().flatten())
            .finish()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        segments_eq(&self.segments(), &other.segments())
    }
}

impl Eq for Frame {}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        segments_eq(&self.segments(), &[other])
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Frame {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Bytes> for Frame {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other[..]
    }
}

/// Incremental encoder producing the canonical wire form.
///
/// # Examples
///
/// ```
/// use fs_common::codec::{Encoder, Decoder};
/// let mut enc = Encoder::new();
/// enc.put_u32(7);
/// enc.put_bytes(b"hello");
/// let bytes = enc.finish();
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.get_u32().unwrap(), 7);
/// assert_eq!(dec.get_bytes().unwrap(), b"hello");
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
    splice: Splice,
}

/// Whether (and where) an encoder splices a shared field instead of copying
/// it.
#[derive(Debug, Default)]
enum Splice {
    /// Contiguous output: every field is copied.
    #[default]
    Off,
    /// Frame output, nothing spliced yet.
    Armed,
    /// Frame output with `body` spliced in after `buf[..at]`.
    At { at: usize, body: Bytes },
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
            splice: Splice::Off,
        }
    }

    /// Creates an encoder for [`Encoder::finish_frame`]: the first
    /// [`Encoder::put_shared`] field of at least the (private) splice size
    /// becomes the frame's `body` by refcount.  `hint` is the value's
    /// [`Wire::encoded_len`]; below the splice size nothing can splice and
    /// the buffer is sized exactly as [`Encoder::with_capacity`] would.
    pub fn splicing(hint: usize) -> Self {
        let cap = if hint < SPLICE_MIN {
            hint
        } else {
            SPLICE_HEAD_CAPACITY
        };
        Self {
            buf: BytesMut::with_capacity(cap),
            splice: Splice::Armed,
        }
    }

    /// Appends a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a length-prefixed byte string.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends `v` as it is, with no length prefix: the rest of a field
    /// whose prefix the caller wrote.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed byte string the caller holds as a shared
    /// buffer.  On the wire this is exactly [`Encoder::put_bytes`]; a
    /// splicing encoder takes a large `v` by refcount instead of copying it.
    #[inline]
    pub fn put_shared(&mut self, v: &Bytes) {
        self.put_u32(v.len() as u32);
        self.put_segment(v);
    }

    /// Appends a length-prefixed byte string the caller holds as a
    /// [`Frame`].  On the wire this is exactly [`Encoder::put_bytes`] of its
    /// logical bytes; a splicing encoder takes the frame's first large
    /// segment — a rope's body — by refcount and copies only the bytes
    /// around it, so a rope nested in a rope still carries its payload
    /// without a copy.
    #[inline]
    pub fn put_frame(&mut self, v: &Frame) {
        self.put_u32(v.len() as u32);
        for part in v.parts() {
            self.put_segment(part);
        }
    }

    /// Appends `v` with no length prefix: spliced by refcount when this is
    /// a splicing encoder that has spliced nothing yet and `v` is large,
    /// copied otherwise.
    #[inline]
    fn put_segment(&mut self, v: &Bytes) {
        if matches!(self.splice, Splice::Armed) && v.len() >= SPLICE_MIN {
            self.splice = Splice::At {
                at: self.buf.len(),
                body: v.clone(),
            };
        } else {
            self.buf.put_slice(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a [`ProcessId`].
    #[inline]
    pub fn put_process(&mut self, v: ProcessId) {
        self.put_u32(v.0);
    }

    /// Appends a [`MemberId`].
    #[inline]
    pub fn put_member(&mut self, v: MemberId) {
        self.put_u32(v.0);
    }

    /// Appends a [`MsgId`].
    #[inline]
    pub fn put_msg_id(&mut self, v: MsgId) {
        self.put_u32(v.origin.0);
        self.put_u64(v.seq);
    }

    /// Returns the number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
            + match &self.splice {
                Splice::At { body, .. } => body.len(),
                _ => 0,
            }
    }

    /// Returns true when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalises the encoder and returns the produced bytes as one buffer.
    #[inline]
    pub fn finish(self) -> Bytes {
        match self.splice {
            Splice::At { .. } => self.finish_frame().into_bytes(),
            _ => self.buf.freeze(),
        }
    }

    /// Finalises the encoder into a `Vec<u8>`.
    pub fn finish_vec(self) -> Vec<u8> {
        match self.splice {
            Splice::At { .. } => self.finish().to_vec(),
            _ => self.buf.into(),
        }
    }

    /// Finalises the encoder into a [`Frame`]: `head ‖ body ‖ tail` around
    /// the spliced field when there is one (head and tail share the one
    /// buffer the encoder wrote), a single segment otherwise.
    #[inline]
    pub fn finish_frame(self) -> Frame {
        let written = self.buf.freeze();
        match self.splice {
            Splice::At { at, body } => {
                Frame::from_segments(written.slice(..at), body, written.slice(at..))
            }
            _ => written.into(),
        }
    }
}

/// Incremental decoder for the canonical wire form.
///
/// A decoder created with [`Decoder::new`] borrows a plain byte slice and
/// must copy when a length-prefixed field is extracted as owned bytes.  A
/// decoder created with [`Decoder::from_shared`] or [`Decoder::from_frame`]
/// additionally remembers the refcount-shared buffer(s) the bytes live in,
/// which lets [`Decoder::get_bytes_shared`] hand out zero-copy sub-slice
/// views instead of copies — the receive path uses this everywhere.
///
/// Over a multi-segment [`Frame`] the decoder moves from one segment to the
/// next as reads reach a boundary.  [`Decoder::get_frame`] hands out a
/// field that spans segments as a sub-frame sharing them — which is how a
/// rope nested in a rope decodes.  Any other read that would *straddle* a
/// boundary (no frame this crate's encoder produces has one) cannot be
/// served as a borrowed slice; it is flagged, and [`Wire::from_frame`] then
/// decodes the flattened frame instead, so every segmentation of the same
/// bytes decodes to the same value or the same error.
#[derive(Debug)]
pub struct Decoder<'a> {
    /// The segment being read.
    buf: &'a [u8],
    pos: usize,
    /// The shared buffer `buf` is a view of, when known.  Kept so
    /// `get_bytes_shared` can return views that share its storage.
    shared: Option<&'a Bytes>,
    /// The segments after `buf`.
    later: &'a [Bytes],
    /// A read straddled a segment boundary; the error it returned is a
    /// placeholder.
    straddled: bool,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            shared: None,
            later: &[],
            straddled: false,
        }
    }

    /// Creates a decoder over a refcount-shared buffer.  Length-prefixed
    /// fields extracted with [`Decoder::get_bytes_shared`] will be zero-copy
    /// views into `bytes`.
    #[inline]
    pub fn from_shared(bytes: &'a Bytes) -> Self {
        Self {
            shared: Some(bytes),
            ..Self::new(bytes)
        }
    }

    /// Creates a decoder over a (possibly multi-segment) frame.  Fields
    /// extracted with [`Decoder::get_bytes_shared`] are zero-copy views of
    /// the segment they lie in.
    #[inline]
    pub fn from_frame(frame: &'a Frame) -> Self {
        Self {
            later: frame.later(),
            ..Self::from_shared(&frame.head)
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            self.enter_segment_with(n)?;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The current segment cannot serve a read of `n` bytes: step into the
    /// next segment if this one is exhausted, and fail if the read runs past
    /// the end of the input or straddles a boundary.
    #[cold]
    fn enter_segment_with(&mut self, n: usize) -> Result<(), CodecError> {
        let short = CodecError::UnexpectedEof {
            wanted: n,
            available: self.remaining(),
        };
        if self.remaining() < n {
            return Err(short);
        }
        while self.pos == self.buf.len() && self.next_segment() {}
        if self.buf.len() - self.pos < n {
            self.straddled = true;
            return Err(short);
        }
        Ok(())
    }

    /// Steps into the next segment; false when there is none.
    fn next_segment(&mut self) -> bool {
        let Some((next, later)) = self.later.split_first() else {
            return false;
        };
        (self.buf, self.pos, self.shared, self.later) = (next, 0, Some(next), later);
        true
    }

    /// Returns the number of bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos + self.later.iter().map(Bytes::len).sum::<usize>()
    }

    /// Returns an error if any bytes remain unconsumed.
    #[inline]
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() > 0 {
            Err(CodecError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    /// Reads a length prefix, refusing one above [`MAX_FIELD_LEN`].
    #[inline]
    fn get_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::LengthOverflow {
                length: len,
                max: MAX_FIELD_LEN,
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed byte string into an owned vector.
    #[inline]
    pub fn get_bytes_owned(&mut self) -> Result<Vec<u8>, CodecError> {
        self.get_bytes().map(|b| b.to_vec())
    }

    /// Reads a length-prefixed byte string into a refcount-shared buffer.
    ///
    /// When the decoder was created over shared storage (the normal receive
    /// path — see [`Wire::from_frame`] and [`Wire::from_wire_shared`]), the
    /// returned [`Bytes`] is a zero-copy sub-slice view of the segment the
    /// field lies in: it shares that storage and costs one refcount bump, no
    /// payload bytes are copied.  Only a decoder over a bare `&[u8]` falls
    /// back to copying.
    #[inline]
    pub fn get_bytes_shared(&mut self) -> Result<Bytes, CodecError> {
        let bytes = self.get_bytes()?;
        // The field is the `bytes.len()` bytes just consumed from the
        // current segment.
        match self.shared {
            Some(segment) => Ok(segment.slice(self.pos - bytes.len()..self.pos)),
            None => Ok(Bytes::copy_from_slice(bytes)),
        }
    }

    /// Reads a length-prefixed byte string as a [`Frame`] that shares the
    /// segments the field spans: one zero-copy view when it lies in one
    /// segment, a rope of views when it spans several — a field written by
    /// [`Encoder::put_frame`] comes back with the rope's body the very
    /// buffer that was spliced in.  No segmentation is flattened.  Only a
    /// decoder over a bare `&[u8]` copies.
    pub fn get_frame(&mut self) -> Result<Frame, CodecError> {
        let len = self.get_len()?;
        let Some(segment) = self.shared else {
            return self.take(len).map(Frame::from);
        };
        if self.buf.len() - self.pos >= len {
            let start = self.pos;
            self.pos += len;
            return Ok(segment.slice(start..self.pos).into());
        }
        if self.remaining() < len {
            return Err(CodecError::UnexpectedEof {
                wanted: len,
                available: self.remaining(),
            });
        }
        // A frame has at most three segments, so the field spans at most
        // three; empty stretches are skipped.
        let mut parts: [Bytes; 3] = Default::default();
        let mut left = len;
        for part in &mut parts {
            while self.pos == self.buf.len() && self.next_segment() {}
            let (Some(segment), true) = (self.shared, left > 0) else {
                break;
            };
            let here = left.min(self.buf.len() - self.pos);
            *part = segment.slice(self.pos..self.pos + here);
            self.pos += here;
            left -= here;
        }
        debug_assert_eq!(left, 0, "a field spans at most three segments");
        let [first, second, third] = parts;
        Ok(Frame::from_segments(first, second, third))
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let bytes = self.get_bytes()?;
        core::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Reads a [`ProcessId`].
    #[inline]
    pub fn get_process(&mut self) -> Result<ProcessId, CodecError> {
        Ok(ProcessId(self.get_u32()?))
    }

    /// Reads a [`MemberId`].
    #[inline]
    pub fn get_member(&mut self) -> Result<MemberId, CodecError> {
        Ok(MemberId(self.get_u32()?))
    }

    /// Reads a [`MsgId`].
    #[inline]
    pub fn get_msg_id(&mut self) -> Result<MsgId, CodecError> {
        let origin = self.get_process()?;
        let seq = self.get_u64()?;
        Ok(MsgId { origin, seq })
    }
}

/// Types with a canonical, deterministic wire encoding.
///
/// `encode` and `decode` must round-trip and two equal values must produce
/// byte-identical encodings (this is what the Compare processes rely on).
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes a value from `dec`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the buffer is malformed.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// A sizing hint for [`Wire::to_wire`]: the exact (or a close upper
    /// bound on the) number of bytes `encode` will produce.  Implementations
    /// on the hot path return the exact length so the encoder allocates its
    /// buffer once instead of growing it from zero; the default of 0 means
    /// "unknown" and falls back to growth-on-demand.
    fn encoded_len(&self) -> usize {
        0
    }

    /// Encodes `self` once into an immutable, refcount-shared buffer.
    ///
    /// The returned [`Bytes`] can be cloned per multicast recipient without
    /// copying the frame.
    fn to_wire(&self) -> Bytes {
        let mut enc = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut enc);
        enc.finish()
    }

    /// Encodes `self` once into a [`Frame`] for the transport.
    ///
    /// `to_frame().to_bytes() == to_wire()` byte for byte.  A small value
    /// is one segment, built exactly as [`Wire::to_wire`] builds it; a value
    /// whose `encode` hands a large byte string to [`Encoder::put_shared`]
    /// carries that string by refcount instead of copying it.
    fn to_frame(&self) -> Frame {
        let mut enc = Encoder::splicing(self.encoded_len());
        self.encode(&mut enc);
        enc.finish_frame()
    }

    /// Decodes a value from `bytes`, requiring the whole buffer to be
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the buffer is malformed or has trailing
    /// bytes.
    fn from_wire(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    /// Decodes a value from a refcount-shared frame, requiring the whole
    /// buffer to be consumed.  Byte-string fields of the decoded value are
    /// zero-copy views sharing `frame`'s storage (see
    /// [`Decoder::get_bytes_shared`]); the decoded value is byte-identical
    /// to what [`Wire::from_wire`] produces from the same bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the buffer is malformed or has trailing
    /// bytes.
    fn from_wire_shared(frame: &Bytes) -> Result<Self, CodecError> {
        let mut dec = Decoder::from_shared(frame);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    /// Decodes a value from a transport [`Frame`], requiring the whole frame
    /// to be consumed: [`Wire::from_wire_shared`] of the frame's bytes, value
    /// and error alike, without flattening it.  Byte-string fields are
    /// zero-copy views of the segment they lie in; only a frame whose
    /// segment boundaries cut through a field is flattened first.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the frame is malformed or has trailing
    /// bytes.
    fn from_frame(frame: &Frame) -> Result<Self, CodecError> {
        let mut dec = Decoder::from_frame(frame);
        let decoded = Self::decode(&mut dec);
        if dec.straddled {
            return Self::from_wire_shared(&frame.to_bytes());
        }
        let v = decoded?;
        dec.finish()?;
        Ok(v)
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_bytes_owned()
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_shared(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_bytes_shared()
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_str().map(|s| s.to_owned())
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_u64()
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for MsgId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_msg_id(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_msg_id()
    }
    fn encoded_len(&self) -> usize {
        12
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.get_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::LengthOverflow {
                length: len,
                max: MAX_FIELD_LEN,
            });
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            other => Err(CodecError::UnknownTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xab);
        enc.put_u32(0xdeadbeef);
        enc.put_u64(0x0123_4567_89ab_cdef);
        enc.put_bytes(b"payload");
        enc.put_str("group-1");
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xab);
        assert_eq!(dec.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(dec.get_bytes().unwrap(), b"payload");
        assert_eq!(dec.get_str().unwrap(), "group-1");
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn id_round_trip() {
        let mut enc = Encoder::new();
        enc.put_process(ProcessId(3));
        enc.put_member(MemberId(6));
        enc.put_msg_id(MsgId::new(ProcessId(7), 42));
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_process().unwrap(), ProcessId(3));
        assert_eq!(dec.get_member().unwrap(), MemberId(6));
        assert_eq!(dec.get_msg_id().unwrap(), MsgId::new(ProcessId(7), 42));
    }

    #[test]
    fn eof_is_reported() {
        let mut dec = Decoder::new(&[1, 2]);
        let err = dec.get_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                wanted: 4,
                available: 2
            }
        );
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(u32::MAX);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            dec.get_bytes().unwrap_err(),
            CodecError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put_u8(2);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        assert_eq!(dec.finish().unwrap_err(), CodecError::TrailingBytes(1));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_str().unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn wire_trait_round_trip() {
        let v: Vec<u8> = vec![1, 2, 3];
        assert_eq!(Vec::<u8>::from_wire(&v.to_wire()).unwrap(), v);

        let s = "fail-signal".to_string();
        assert_eq!(String::from_wire(&s.to_wire()).unwrap(), s);

        let ids = vec![MsgId::new(ProcessId(1), 2), MsgId::new(ProcessId(3), 4)];
        assert_eq!(Vec::<MsgId>::from_wire(&ids.to_wire()).unwrap(), ids);

        let o: Option<u64> = Some(99);
        assert_eq!(Option::<u64>::from_wire(&o.to_wire()).unwrap(), o);
        let n: Option<u64> = None;
        assert_eq!(Option::<u64>::from_wire(&n.to_wire()).unwrap(), n);
    }

    #[test]
    fn wire_rejects_trailing() {
        let mut bytes = 7u64.to_wire().to_vec();
        bytes.push(0);
        assert!(u64::from_wire(&bytes).is_err());
    }

    #[test]
    fn encoded_len_is_exact_for_common_types() {
        let v: Vec<u8> = vec![1, 2, 3];
        assert_eq!(v.encoded_len(), v.to_wire().len());
        let s = "fail-signal".to_string();
        assert_eq!(s.encoded_len(), s.to_wire().len());
        assert_eq!(7u64.encoded_len(), 7u64.to_wire().len());
        let id = MsgId::new(ProcessId(1), 2);
        assert_eq!(id.encoded_len(), id.to_wire().len());
        let ids = vec![id, MsgId::new(ProcessId(3), 4)];
        assert_eq!(ids.encoded_len(), ids.to_wire().len());
        let o: Option<u64> = Some(99);
        assert_eq!(o.encoded_len(), o.to_wire().len());
        let b = Bytes::copy_from_slice(&[9; 40]);
        assert_eq!(b.encoded_len(), b.to_wire().len());
        assert_eq!(Bytes::from_wire(&b.to_wire()).unwrap(), b);
    }

    #[test]
    fn get_bytes_shared_is_zero_copy_from_a_frame() {
        let mut enc = Encoder::new();
        enc.put_u32(7);
        enc.put_bytes(b"payload-bytes");
        enc.put_bytes(b"");
        let frame = enc.finish();

        let mut dec = Decoder::from_shared(&frame);
        assert_eq!(dec.get_u32().unwrap(), 7);
        let payload = dec.get_bytes_shared().unwrap();
        assert_eq!(payload, b"payload-bytes");
        // The decoded field is a view into the frame: shared storage, one
        // refcount bump, zero payload bytes copied.
        assert!(payload.shares_storage(&frame));
        let empty = dec.get_bytes_shared().unwrap();
        assert!(empty.is_empty());
        assert!(dec.finish().is_ok());

        // The bare-slice decoder still copies (no frame to share).
        let mut copying = Decoder::new(&frame);
        copying.get_u32().unwrap();
        let copied = copying.get_bytes_shared().unwrap();
        assert_eq!(copied, payload);
        assert!(!copied.shares_storage(&frame));
    }

    #[test]
    fn from_wire_shared_matches_from_wire() {
        let value = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let frame = value.to_wire();
        let shared = Bytes::from_wire_shared(&frame).unwrap();
        let copied = Bytes::from_wire(&frame).unwrap();
        assert_eq!(shared, copied);
        assert!(shared.shares_storage(&frame));
        // Trailing bytes are still rejected.
        let mut long = frame.to_vec();
        long.push(0);
        assert!(Bytes::from_wire_shared(&Bytes::from(long)).is_err());
    }

    #[test]
    fn equal_values_encode_identically() {
        let a = vec![MsgId::new(ProcessId(1), 2), MsgId::new(ProcessId(3), 4)];
        let b = vec![MsgId::new(ProcessId(1), 2), MsgId::new(ProcessId(3), 4)];
        assert_eq!(a.to_wire(), b.to_wire());
    }

    /// A value with every field shape the frame decoder meets: fixed-width
    /// integers, a borrowed string, a shared byte string, a counted list.
    #[derive(Debug, Clone, PartialEq)]
    struct Mixed {
        tag: u8,
        seq: u64,
        name: String,
        body: Bytes,
        ids: Vec<MsgId>,
    }

    impl Wire for Mixed {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u8(self.tag);
            enc.put_u64(self.seq);
            enc.put_str(&self.name);
            enc.put_shared(&self.body);
            self.ids.encode(enc);
        }
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
            Ok(Self {
                tag: dec.get_u8()?,
                seq: dec.get_u64()?,
                name: dec.get_str()?.to_owned(),
                body: dec.get_bytes_shared()?,
                ids: Vec::decode(dec)?,
            })
        }
        fn encoded_len(&self) -> usize {
            1 + 8 + 4 + self.name.len() + 4 + self.body.len() + self.ids.encoded_len()
        }
    }

    fn mixed(body_len: usize) -> Mixed {
        Mixed {
            tag: 7,
            seq: 0x0102_0304_0506_0708,
            name: "fs".into(),
            body: (0..body_len)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<u8>>()
                .into(),
            ids: vec![MsgId::new(ProcessId(3), 9)],
        }
    }

    /// `bytes` cut into three segments at `i <= j`.
    fn cut(bytes: &Bytes, i: usize, j: usize) -> Frame {
        Frame::from_segments(bytes.slice(..i), bytes.slice(i..j), bytes.slice(j..))
    }

    #[test]
    fn segments_eq_ignores_split_points() {
        let data: Vec<u8> = (0..40).collect();
        for i in 0..=data.len() {
            for j in i..=data.len() {
                let parts = [&data[..i], &data[i..j], &data[j..]];
                assert!(segments_eq(&parts, &[&data]));
                assert!(segments_eq(&[&data], &parts));
                assert!(segments_eq(&parts, &[&data[..j], &[], &data[j..]]));
            }
        }
        let mut other = data.clone();
        for flip in 0..data.len() {
            other[flip] ^= 1;
            assert!(!segments_eq(
                &[&data[..7], &data[7..]],
                &[&other[..20], &other[20..]]
            ));
            other[flip] ^= 1;
        }
        assert!(!segments_eq(&[&data], &[&data[..39]]));
        assert!(segments_eq(&[], &[&[], &[]]));
    }

    #[test]
    fn small_frames_stay_one_segment_and_large_fields_are_spliced() {
        let small = mixed(SPLICE_MIN - 1);
        let frame = small.to_frame();
        assert!(frame.is_contiguous());
        assert_eq!(frame.to_bytes(), small.to_wire());

        let large = mixed(SPLICE_MIN);
        let frame = large.to_frame();
        assert!(!frame.is_contiguous());
        // The body segment *is* the caller's buffer; head and tail share the
        // one buffer the encoder wrote.
        let [head, body, tail] = frame.segments();
        assert!(std::ptr::eq(body.as_ptr(), large.body.as_ptr()));
        assert_eq!(head.len() + tail.len(), large.encoded_len() - SPLICE_MIN);
        assert_eq!(frame.len(), large.encoded_len());
        assert_eq!(frame.to_bytes(), large.to_wire());
        assert_eq!(frame, Frame::from(large.to_wire()));
        // Decoding hands the very same buffer back.
        let decoded = Mixed::from_frame(&frame).unwrap();
        assert_eq!(decoded, large);
        assert!(decoded.body.same_view(&large.body));
        // A contiguous encoder copies, whatever the size.
        assert!(!Mixed::from_wire_shared(&large.to_wire())
            .unwrap()
            .body
            .shares_storage(&large.body));
    }

    #[test]
    fn only_the_first_large_field_is_spliced() {
        let big: Bytes = vec![9u8; SPLICE_MIN + 5].into();
        let mut enc = Encoder::splicing(0);
        enc.put_shared(&big);
        enc.put_shared(&big);
        assert_eq!(enc.len(), 2 * (4 + big.len()));
        let frame = enc.finish_frame();
        let [head, body, tail] = frame.segments();
        assert_eq!(
            (head.len(), body.len(), tail.len()),
            (4, big.len(), 4 + big.len())
        );
        let mut dec = Decoder::from_frame(&frame);
        assert!(dec.get_bytes_shared().unwrap().same_view(&big));
        let second = dec.get_bytes_shared().unwrap();
        assert_eq!(second, big);
        assert!(!second.same_view(&big));
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn every_segmentation_decodes_like_the_contiguous_bytes() {
        let value = mixed(23);
        let wire = value.to_wire();
        for i in 0..=wire.len() {
            for j in i..=wire.len() {
                let frame = cut(&wire, i, j);
                assert_eq!(frame.len(), wire.len());
                assert_eq!(frame, wire);
                assert_eq!(Mixed::from_frame(&frame).unwrap(), value, "cut {i}/{j}");
            }
        }
        // Cut on the field's own boundaries the body is a view, not a copy.
        let start = 1 + 8 + 4 + 2 + 4;
        let frame = cut(&wire, start, start + 23);
        let decoded = Mixed::from_frame(&frame).unwrap();
        assert!(decoded.body.shares_storage(&wire));
    }

    #[test]
    fn every_segmentation_fails_like_the_contiguous_bytes() {
        let value = mixed(23);
        let wire = value.to_wire().to_vec();
        let mut hostile: Vec<Vec<u8>> = Vec::new();
        // Truncated at every length, and with trailing bytes.
        for keep in 0..wire.len() {
            hostile.push(wire[..keep].to_vec());
        }
        hostile.push([&wire[..], &[0, 1]].concat());
        // An over-long length prefix on the shared field, on the string and
        // on the list.
        for prefix_at in [1 + 8, 1 + 8 + 4 + 2, 1 + 8 + 4 + 2 + 4 + 23] {
            let mut long = wire.clone();
            long[prefix_at..prefix_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            hostile.push(long);
        }
        // Bad UTF-8.
        let mut bad = wire.clone();
        bad[1 + 8 + 4] = 0xff;
        hostile.push(bad);

        for input in hostile {
            let contiguous = Bytes::from(input);
            let expected = Mixed::from_wire_shared(&contiguous).unwrap_err();
            assert_eq!(Mixed::from_wire(&contiguous).unwrap_err(), expected);
            for i in 0..=contiguous.len() {
                for j in i..=contiguous.len() {
                    assert_eq!(
                        Mixed::from_frame(&cut(&contiguous, i, j)).unwrap_err(),
                        expected,
                        "{} bytes cut {i}/{j}",
                        contiguous.len()
                    );
                }
            }
        }
    }

    #[test]
    fn frame_conversions_and_flattening() {
        let frame: Frame = vec![1u8, 2, 3].into();
        assert!(frame.is_contiguous());
        assert_eq!(frame, &[1u8, 2, 3]);
        assert_eq!(frame, [1u8, 2, 3][..]);
        assert!(Frame::default().is_empty());
        // Flattening a contiguous frame is a refcount clone.
        let bytes = Bytes::from(vec![4u8; 9]);
        assert!(Frame::from(bytes.clone()).to_bytes().same_view(&bytes));
        assert!(Frame::from(bytes.clone()).into_bytes().same_view(&bytes));
        let spliced = Frame::from_segments(bytes.slice(..2), bytes.slice(2..5), bytes.slice(5..));
        assert!(!spliced.is_contiguous());
        assert_eq!(spliced.into_bytes(), bytes);
        assert_eq!(format!("{:?}", Frame::from(&[1u8, 2][..])), "[1, 2]");
    }
}
