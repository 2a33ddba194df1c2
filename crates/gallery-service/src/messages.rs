//! Request/response messages of the Gallery service API (§4.1) and their
//! wire encodings.
//!
//! The method surface mirrors the paper's Listings 3–5 (`createGalleryModel`,
//! `uploadModel`, `insertModelInstanceMetric`, `modelQuery`) plus the
//! dependency, deployment, lifecycle, rule, and health operations the rest
//! of the paper describes.
//!
//! Like a Thrift IDL, every message is declared once, in one of three
//! tables (`wire_struct!`, `wire_union!`, `wire_tags!`), and its codec is
//! derived from the declaration: fields go on the wire in declaration
//! order, a field's type picks its encoding (see [`Wire`]), and variant
//! tags are the explicit literals in the table. Only the envelopes around
//! a request (trace, idempotency key, shard) are written by hand, and so is
//! the one reply the server writes from stored rows, [`instances_frame`].

use crate::wire::{ivarint_len, uvarint_len, Reader, WireError, Writer};
use bytes::Bytes;
use gallery_core::{DisplayVersion, InstanceFields, InstanceRows};
use gallery_telemetry::SpanContext;

/// The encoding of one field type. Integers are varints (zigzag when
/// signed) except `u8`, `Option` is a presence byte then the value, `Vec`
/// is a count then the items, `Box` is transparent.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader) -> Result<Self, WireError>;
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl Wire for Bytes {
    fn put(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_u8()
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut Writer) {
        w.put_uvarint(u64::from(*self));
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(r.get_uvarint()? as u32)
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut Writer) {
        w.put_uvarint(*self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_uvarint()
    }
}

impl Wire for i64 {
    fn put(&self, w: &mut Writer) {
        w.put_ivarint(*self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_ivarint()
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_f64()
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(if r.get_bool()? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_uvarint(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    /// The count comes from the peer, so it never sizes an allocation by
    /// itself: every item takes at least one byte, which bounds the
    /// reservation by what is left to read, and a lying count then fails
    /// on the item where the buffer runs out.
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.get_uvarint()? as usize;
        let mut items = Vec::with_capacity(n.min(r.remaining()).min(4096));
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A struct whose wire form is its fields in declaration order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $fty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $fty,)*
        }

        impl Wire for $name {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut Reader) -> Result<Self, WireError> {
                Ok($name { $($field: Wire::get(r)?,)* })
            }
        }
    };
}

/// A fieldless enum carried as its one-byte discriminant.
macro_rules! wire_tags {
    (
        $(#[$meta:meta])*
        pub enum $name:ident($what:literal) {
            $($(#[$vmeta:meta])* $variant:ident = $tag:literal,)*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant = $tag,)*
        }

        impl Wire for $name {
            fn put(&self, w: &mut Writer) {
                w.put_u8(*self as u8);
            }
            fn get(r: &mut Reader) -> Result<Self, WireError> {
                match r.get_u8()? {
                    $($tag => Ok($name::$variant),)*
                    other => Err(WireError::new(format!(concat!("bad ", $what, " {}"), other))),
                }
            }
        }
    };
}

/// A tagged union: one row per variant, `tag => Variant`, followed by
/// nothing, by `{ field: Type, .. }` or by `(binding: Type)`. On the wire
/// a value is its tag byte and then its fields in declaration order.
///
/// The first form is for RPC requests, whose rows end in
/// `: "methodName", mutating` so that a method's name and whether it
/// changes server state are stated next to its tag and fields. The span
/// names of a call are built from the method name here, at compile time.
macro_rules! wire_union {
    (
        $(#[$meta:meta])*
        pub enum $name:ident($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({ $($field:ident: $fty:ty),* $(,)? })?
                    : $method:literal, $mutating:literal,
            )*
        }
    ) => {
        wire_union! {
            $(#[$meta])*
            pub enum $name($what) {
                $($(#[$vmeta])* $tag => $variant $({ $($field: $fty),* })?,)*
            }
        }

        impl $name {
            /// The wire method name, used as the circuit-breaker endpoint
            /// key and in request logs.
            pub fn method_name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $method,)*
                }
            }

            /// Whether the request changes server state. Mutating requests
            /// are the ones a client must attach an idempotency key to
            /// before retrying an ambiguous failure (the request may have
            /// been applied even though the response was lost).
            pub fn is_mutating(&self) -> bool {
                match self {
                    $($name::$variant { .. } => $mutating,)*
                }
            }

            /// One more than the largest tag: the length of a table with a
            /// slot per method, indexed by [`Self::tag`].
            const TAG_SLOTS: usize = {
                let mut slots = 0;
                $(if $tag >= slots { slots = $tag + 1; })*
                slots
            };

            /// The variant's wire tag.
            fn tag(&self) -> usize {
                match self {
                    $($name::$variant { .. } => $tag,)*
                }
            }

            /// Name of the client's span for this call.
            pub(crate) fn client_span_name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => concat!("rpc.client/", $method),)*
                }
            }

            /// Name of the server's handler span for this call.
            pub(crate) fn server_span_name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => concat!("rpc.server/", $method),)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $({ $($field:ident: $fty:ty),* $(,)? })?
                    $(( $bind:ident: $tty:ty ))?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant $({ $($field: $fty),* })? $(( $tty ))?,)*
        }

        impl $name {
            /// Decode the fields of the variant `tag` names.
            fn get_tagged(tag: u8, r: &mut Reader) -> Result<Self, WireError> {
                match tag {
                    $($tag => Ok($name::$variant
                        $({ $($field: Wire::get(r)?),* })?
                        $(( <$tty as Wire>::get(r)? ))?),)*
                    other => Err(WireError::new(format!(concat!("bad ", $what, " {}"), other))),
                }
            }
        }

        impl Wire for $name {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($name::$variant $({ $($field),* })? $(( $bind ))? => {
                        w.put_u8($tag);
                        $($($field.put(w);)*)?
                        $($bind.put(w);)?
                    })*
                }
            }
            fn get(r: &mut Reader) -> Result<Self, WireError> {
                let tag = r.get_u8()?;
                Self::get_tagged(tag, r)
            }
        }
    };
}

wire_struct! {
    /// A query constraint as carried on the wire (Listing 5's
    /// `(field, operator, value)` triples).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireConstraint {
        pub field: String,
        pub op: WireOp,
        pub value: WireValue,
    }
}

wire_tags! {
    /// Constraint operator tags.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireOp("op tag") {
        Eq = 0,
        Ne = 1,
        Lt = 2,
        Le = 3,
        Gt = 4,
        Ge = 5,
        Contains = 6,
        StartsWith = 7,
    }
}

wire_union! {
    /// A dynamically typed constraint value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireValue("value tag") {
        0 => Null,
        1 => Bool(b: bool),
        2 => Int(i: i64),
        3 => Float(x: f64),
        4 => Str(s: String),
    }
}

impl WireConstraint {
    pub fn new(field: impl Into<String>, op: WireOp, value: WireValue) -> Self {
        WireConstraint {
            field: field.into(),
            op,
            value,
        }
    }
}

wire_union! {
    /// All service requests.
    ///
    /// Rule requests count as mutating because the engine may run
    /// promotion actions. The replication requests (`ShipWal`, `ApplyWal`,
    /// `ReplStatus`, `SetShardRole`) deliberately do NOT count:
    /// `ApplyWal` and `SetShardRole` change state but are sequence-/
    /// value-idempotent by construction, so the router retries them
    /// freely without minting keys — the idempotency cache is reserved
    /// for client writes.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request("request tag") {
        /// Listing 3: `createGalleryModel(project, base_version_id)`.
        1 => CreateModel {
            project: String,
            base_version_id: String,
            name: String,
            owner: String,
            description: String,
            metadata_json: String,
        }: "createGalleryModel", true,
        2 => GetModel { model_id: String }: "getModel", false,
        /// Listing 3: `uploadModel(...)` — the blob rides along.
        3 => UploadModel {
            model_id: String,
            metadata_json: String,
            blob: Bytes,
        }: "uploadModel", true,
        4 => GetInstance { instance_id: String }: "getInstance", false,
        5 => FetchBlob { instance_id: String }: "fetchBlob", false,
        /// Listing 4: `insertModelInstanceMetric(...)`.
        6 => InsertMetric {
            instance_id: String,
            name: String,
            scope: String,
            value: f64,
            metadata_json: String,
        }: "insertModelInstanceMetric", true,
        /// Listing 5: `modelQuery(searchConstraint)`.
        7 => ModelQuery { constraints: Vec<WireConstraint> }: "modelQuery", false,
        8 => InstancesOfBaseVersion { base_version_id: String }: "instancesOfBaseVersion", false,
        9 => LatestInstance { model_id: String }: "latestInstance", false,
        10 => Deploy { model_id: String, instance_id: String, environment: String }: "deploy", true,
        11 => DeployedInstance { model_id: String, environment: String }: "deployedInstance", false,
        12 => AddDependency { model_id: String, upstream_id: String }: "addDependency", true,
        13 => RemoveDependency { model_id: String, upstream_id: String }: "removeDependency", true,
        14 => UpstreamOf { model_id: String }: "upstreamOf", false,
        15 => DownstreamOf { model_id: String }: "downstreamOf", false,
        16 => DeprecateModel { model_id: String }: "deprecateModel", true,
        17 => DeprecateInstance { instance_id: String }: "deprecateInstance", true,
        18 => SetStage { instance_id: String, stage: String }: "setStage", true,
        19 => StageOf { instance_id: String }: "stageOf", false,
        /// Run a registered selection rule, returning the champion.
        20 => SelectChampion { rule_id: String }: "selectChampion", true,
        /// Directly trigger a registered action rule against an instance.
        21 => TriggerRule { rule_id: String, instance_id: String }: "triggerRule", true,
        22 => HealthReport { instance_id: String }: "healthReport", false,
        /// Observability probe: render the server's telemetry in text form.
        /// `section` selects what to render — `"metrics"` (Prometheus
        /// exposition), `"alerts"` (alert statuses + recent transitions), or
        /// `"all"` for both.
        23 => Probe { section: String }: "probe", false,
        /// Author-time validation: run the rule-language static analyzer over
        /// `content` without registering anything. `kind` selects the schema —
        /// `"condition"` (alert condition expression), `"rule"` (one rule JSON
        /// document), or `"rules"` (JSON array of rule documents, with
        /// set-level analysis).
        24 => Validate { kind: String, content: String }: "validate", false,
        /// Replication (docs/replication.md): ask a shard leader for the WAL
        /// frames a follower at `from_seq` is missing, at most `max`.
        25 => ShipWal { from_seq: u64, max: u64 }: "shipWal", false,
        /// Replication: apply a batch of shipped WAL frames on a follower.
        /// Seq-idempotent on the store side, so re-sends are safe without an
        /// idempotency key.
        26 => ApplyWal { frames: Vec<WireWalFrame> }: "applyWal", false,
        /// Replication: report a replica's applied sequence and role (used by
        /// the router to pick the most caught-up follower at failover).
        27 => ReplStatus: "replStatus", false,
        /// Cluster control: set this replica's role for the shard (`"leader"`
        /// or `"follower"`). Idempotent — setting the current role is a no-op.
        28 => SetShardRole { role: String }: "setShardRole", false,
    }
}

wire_struct! {
    /// One shipped WAL op on the wire: the leader's 1-based commit sequence
    /// plus the op as the payload bytes of its physical WAL frame (see
    /// `gallery_store::ShipFrame` — this is its wire twin).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireWalFrame {
        pub seq: u64,
        pub op: Bytes,
    }
}

/// One `T` per RPC method, in a fixed table indexed by the request's wire
/// tag: where the client and the server keep what they resolve once per
/// method (their metric handles) instead of once per request.
pub(crate) struct PerMethod<T>([T; Request::TAG_SLOTS]);

impl<T: Default> Default for PerMethod<T> {
    fn default() -> Self {
        PerMethod(std::array::from_fn(|_| T::default()))
    }
}

impl<T> PerMethod<T> {
    pub(crate) fn of(&self, request: &Request) -> &T {
        &self.0[request.tag()]
    }
}

/// Frame tag of the idempotency-key envelope. Tag 0 was never a valid
/// request tag, so old decoders reject keyed frames cleanly and new
/// decoders accept both framings.
pub const KEYED_REQUEST_TAG: u8 = 0;

/// Frame tag of the trace-context envelope: `[tag][trace_id uvarint]`
/// `[span_id uvarint]` followed by a keyed or plain request. The trace
/// envelope is always outermost, so a server can stitch its handler span
/// into the caller's trace before it even looks at the key or method.
/// Tag 254 is far above the request tag range, so old decoders reject
/// traced frames cleanly.
pub const TRACE_ENVELOPE_TAG: u8 = 254;

/// Frame tag of the shard envelope the cluster router wraps forwarded
/// frames in: `[253][shard uvarint][complete inner frame as bytes]`. The
/// inner frame is carried opaquely (it keeps its own length prefix and
/// any trace/key envelopes), so the router never re-encodes what the
/// client signed with an idempotency key. A node peels this envelope,
/// checks it owns the shard in the claimed role, and dispatches the inner
/// frame to its per-shard server. Single-node transports that receive an
/// unsharded frame are unaffected — tag 253 was never a request tag.
pub const SHARD_ENVELOPE_TAG: u8 = 253;

/// Wrap a complete frame in the shard envelope.
pub fn encode_sharded(shard: u32, inner: Bytes) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(SHARD_ENVELOPE_TAG);
    w.put_uvarint(u64::from(shard));
    w.put_bytes(&inner);
    w.frame()
}

/// If `framed` is shard-enveloped, return the target shard and the inner
/// frame; otherwise `None` (a plain frame for the node's default shard).
pub fn decode_sharded(framed: Bytes) -> Result<Option<(u32, Bytes)>, WireError> {
    if framed.len() < 5 || framed[4] != SHARD_ENVELOPE_TAG {
        return Ok(None);
    }
    let mut r = Reader::unframe(framed)?;
    r.get_u8()?; // the envelope tag just peeked
    let shard = r.get_uvarint()? as u32;
    let inner = r.get_bytes()?;
    r.finish()?;
    Ok(Some((shard, inner)))
}

/// A fully decoded inbound frame: the propagated trace context and
/// idempotency key (either may be absent) plus the request itself.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRequest {
    pub trace: Option<SpanContext>,
    pub key: Option<String>,
    pub request: Request,
}

impl Request {
    /// Encode to a framed wire message.
    pub fn encode(&self) -> Bytes {
        self.encode_with(None, None)
    }

    /// Encode wrapped in the idempotency-key envelope: tag 0, then the
    /// key, then the ordinary tagged payload. Servers that know the
    /// envelope dedupe on the key; byte-identical re-sends are therefore
    /// safe for mutating requests.
    pub fn encode_keyed(&self, key: &str) -> Bytes {
        self.encode_with(Some(key), None)
    }

    /// Encode with any combination of envelopes: trace context outermost,
    /// then the idempotency key, then the tagged payload. This is what the
    /// instrumented client sends; `encode`/`encode_keyed` are the
    /// envelope-free special cases.
    pub fn encode_with(&self, key: Option<&str>, trace: Option<SpanContext>) -> Bytes {
        let mut w = Writer::new();
        if let Some(ctx) = trace {
            w.put_u8(TRACE_ENVELOPE_TAG);
            w.put_uvarint(ctx.trace_id);
            w.put_uvarint(ctx.span_id);
        }
        if let Some(key) = key {
            w.put_u8(KEYED_REQUEST_TAG);
            w.put_str(key);
        }
        self.put(&mut w);
        w.frame()
    }

    /// Decode from a framed wire message, accepting any envelope framing
    /// and discarding the envelopes. Servers use [`Request::decode_full`]
    /// to observe the key and trace context.
    pub fn decode(framed: Bytes) -> Result<Self, WireError> {
        Self::decode_full(framed).map(|d| d.request)
    }

    /// Decode from a framed wire message, returning the idempotency key if
    /// the frame used the keyed envelope.
    pub fn decode_any(framed: Bytes) -> Result<(Option<String>, Self), WireError> {
        Self::decode_full(framed).map(|d| (d.key, d.request))
    }

    /// Decode a frame in full: optional trace envelope, optional key
    /// envelope, then the request. Envelopes must appear in that order,
    /// each at most once.
    pub fn decode_full(framed: Bytes) -> Result<DecodedRequest, WireError> {
        let mut r = Reader::unframe(framed)?;
        let mut tag = r.get_u8()?;
        let trace = if tag == TRACE_ENVELOPE_TAG {
            let trace_id = r.get_uvarint()?;
            let span_id = r.get_uvarint()?;
            tag = r.get_u8()?;
            if tag == TRACE_ENVELOPE_TAG {
                return Err(WireError::new("nested trace envelope"));
            }
            Some(SpanContext { trace_id, span_id })
        } else {
            None
        };
        let key = if tag == KEYED_REQUEST_TAG {
            let key = r.get_str()?;
            tag = r.get_u8()?;
            if tag == KEYED_REQUEST_TAG {
                return Err(WireError::new("nested keyed envelope"));
            }
            if tag == TRACE_ENVELOPE_TAG {
                return Err(WireError::new("trace envelope inside keyed envelope"));
            }
            Some(key)
        } else {
            None
        };
        let request = Self::get_tagged(tag, &mut r)?;
        r.finish()?;
        Ok(DecodedRequest {
            trace,
            key,
            request,
        })
    }
}

wire_struct! {
    /// Model data transfer object.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ModelDto {
        pub id: String,
        pub base_version_id: String,
        pub project: String,
        pub name: String,
        pub owner: String,
        pub description: String,
        pub metadata_json: String,
        pub created_at: i64,
        pub prev: Option<String>,
        pub deprecated: bool,
    }
}

wire_struct! {
    /// Instance data transfer object. [`instances_frame`] writes these
    /// fields by hand, in this order; `tests/wire_golden.rs` keeps the two
    /// writers equal.
    #[derive(Debug, Clone, PartialEq)]
    pub struct InstanceDto {
        pub id: String,
        pub model_id: String,
        pub base_version_id: String,
        pub display_version: String,
        pub blob_location: Option<String>,
        pub metadata_json: String,
        pub created_at: i64,
        pub trigger: String,
        pub parent: Option<String>,
        pub deprecated: bool,
    }
}

/// `Response::Instances` framed straight from stored rows: the bytes
/// `Response::Instances` of the rows' [`InstanceDto`]s encodes to, with no
/// `ModelInstance` or `InstanceDto` built on the way. Fields go on the wire
/// in `InstanceDto`'s order: the display version in canonical `major.minor`
/// form, absent metadata as `{}`, the trigger as its stored text. The frame
/// is sized once, from the rows. A malformed row fails the reply with the
/// error converting it would give.
pub fn instances_frame(rows: &InstanceRows) -> gallery_core::Result<Bytes> {
    let fields: Vec<InstanceFields> = rows.fields().collect::<gallery_core::Result<_>>()?;
    let mut w = Writer::with_capacity(instances_len(&fields));
    w.put_u8(INSTANCES_TAG);
    w.put_uvarint(fields.len() as u64);
    for f in &fields {
        w.put_str(f.id);
        w.put_str(f.model_id);
        w.put_str(f.base_version_id);
        w.put_bytes(VersionText::of(f.display_version).as_bytes());
        w.put_opt_str(f.blob_location);
        w.put_str(f.metadata.unwrap_or(EMPTY_METADATA));
        w.put_ivarint(f.created_at);
        w.put_str(f.trigger);
        w.put_opt_str(f.parent);
        w.put_bool(f.deprecated);
    }
    Ok(w.frame())
}

/// `Response::Instances`' tag in the table below.
const INSTANCES_TAG: u8 = 5;

/// What an absent metadata column reads as: the empty map's JSON.
const EMPTY_METADATA: &str = "{}";

/// Payload length of the frame [`instances_frame`] writes for `fields`:
/// exact, so the frame is allocated once.
pub(crate) fn instances_len(fields: &[InstanceFields]) -> usize {
    let count = uvarint_len(fields.len() as u64);
    1 + count + fields.iter().map(instance_len).sum::<usize>()
}

/// Encoded length of one row in [`instances_frame`].
fn instance_len(f: &InstanceFields) -> usize {
    let str_len = |s: &str| uvarint_len(s.len() as u64) + s.len();
    let opt_len = |s: Option<&str>| 1 + s.map_or(0, str_len);
    str_len(f.id)
        + str_len(f.model_id)
        + str_len(f.base_version_id)
        // One length byte: the longest version has 21.
        + 1 + VersionText::len(f.display_version)
        + opt_len(f.blob_location)
        + str_len(f.metadata.unwrap_or(EMPTY_METADATA))
        + ivarint_len(f.created_at)
        + str_len(f.trigger)
        + opt_len(f.parent)
        + 1
}

/// A display version's canonical `major.minor` text, what its `Display`
/// writes, built on the stack.
struct VersionText {
    /// Room for the longest version, `4294967295.4294967295`.
    buf: [u8; 21],
    len: usize,
}

impl VersionText {
    fn of(version: DisplayVersion) -> Self {
        let mut buf = [0; 21];
        let major = digits(version.major);
        let len = Self::len(version);
        put_decimal(&mut buf[..major], version.major);
        buf[major] = b'.';
        put_decimal(&mut buf[major + 1..len], version.minor);
        VersionText { buf, len }
    }

    fn len(version: DisplayVersion) -> usize {
        digits(version.major) + 1 + digits(version.minor)
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Decimal digits of `n`.
fn digits(n: u32) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Write `n` in decimal into `out`, which is [`digits`]`(n)` long.
fn put_decimal(out: &mut [u8], mut n: u32) {
    for digit in out.iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

wire_struct! {
    /// Health report DTO.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HealthDto {
        pub reproducibility_score: f64,
        pub missing_fields: Vec<String>,
        pub has_training: bool,
        pub has_validation: bool,
        pub has_production: bool,
        pub skewed_metrics: Vec<String>,
        pub score: f64,
    }
}

wire_struct! {
    /// One static-analysis finding on the wire (see `gallery_rules::diag`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireDiagnostic {
        /// Clause/file the diagnostic refers to ("WHEN", "condition", ...).
        pub origin: String,
        /// The analyzed source text the byte span indexes into.
        pub source: String,
        /// Stable diagnostic code, e.g. "RL0102".
        pub code: String,
        /// 0 = warning, 1 = error.
        pub severity: u8,
        /// Byte span into `source`.
        pub start: u32,
        pub end: u32,
        pub message: String,
        pub help: Option<String>,
    }
}

impl WireDiagnostic {
    pub fn is_error(&self) -> bool {
        self.severity == 1
    }
}

wire_tags! {
    /// Error codes carried by [`Response::Err`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode("error code") {
        NotFound = 1,
        Invalid = 2,
        Conflict = 3,
        Storage = 4,
        Internal = 5,
        /// The answering replica does not own the target shard in the role
        /// the request needs (e.g. a mutation sent to a follower). The router
        /// converts this into a transport-level retry that re-resolves the
        /// shard map — clients never act on a stale map twice.
        WrongShard = 6,
    }
}

wire_union! {
    /// All service responses.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response("response tag") {
        0 => Ok,
        1 => Err { code: ErrorCode, message: String },
        2 => ModelInfo(model: ModelDto),
        3 => InstanceInfo(instance: Box<InstanceDto>),
        4 => MaybeInstance(instance: Option<Box<InstanceDto>>),
        5 => Instances(instances: Vec<InstanceDto>),
        6 => Blob(blob: Bytes),
        7 => MaybeId(id: Option<String>),
        8 => Ids(ids: Vec<String>),
        9 => Stage(stage: String),
        10 => Health(health: HealthDto),
        /// Free-form text payload (probe renderings).
        11 => Text(text: String),
        /// Static-analysis findings from a `Validate` request (empty = clean).
        12 => Diagnostics(findings: Vec<WireDiagnostic>),
        /// Answer to `ShipWal`: the leader's own applied sequence plus the
        /// frames the follower is missing (possibly empty when caught up).
        13 => WalFrames { leader_seq: u64, frames: Vec<WireWalFrame> },
        /// Answer to `ReplStatus` / `ApplyWal` / `SetShardRole`: the
        /// replica's applied sequence and current role after the operation.
        14 => ReplInfo { applied_seq: u64, role: String },
    }
}

impl Response {
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.put(&mut w);
        w.frame()
    }

    pub fn decode(framed: Bytes) -> Result<Self, WireError> {
        let mut r = Reader::unframe(framed)?;
        let resp = Self::get(&mut r)?;
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let framed = req.encode();
        let back = Request::decode(framed).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let framed = resp.encode();
        let back = Response::decode(framed).unwrap();
        assert_eq!(back, resp);
    }

    fn sample_instance() -> InstanceDto {
        InstanceDto {
            id: "i-1".into(),
            model_id: "m-1".into(),
            base_version_id: "supply_rejection".into(),
            display_version: "2.1".into(),
            blob_location: Some("mem://abc".into()),
            metadata_json: r#"{"city":"nyc"}"#.into(),
            created_at: 1234,
            trigger: "trained".into(),
            parent: None,
            deprecated: false,
        }
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_request(Request::CreateModel {
            project: "example-project".into(),
            base_version_id: "supply_rejection".into(),
            name: "Random Forest".into(),
            owner: "fc".into(),
            description: "desc".into(),
            metadata_json: "{}".into(),
        });
        roundtrip_request(Request::GetModel {
            model_id: "m".into(),
        });
        roundtrip_request(Request::UploadModel {
            model_id: "m".into(),
            metadata_json: r#"{"city":"New York City"}"#.into(),
            blob: Bytes::from_static(b"serialized model"),
        });
        roundtrip_request(Request::GetInstance {
            instance_id: "i".into(),
        });
        roundtrip_request(Request::FetchBlob {
            instance_id: "i".into(),
        });
        roundtrip_request(Request::InsertMetric {
            instance_id: "i".into(),
            name: "bias".into(),
            scope: "validation".into(),
            value: 0.05,
            metadata_json: "{}".into(),
        });
        roundtrip_request(Request::ModelQuery {
            constraints: vec![
                WireConstraint::new("projectName", WireOp::Eq, WireValue::Str("p".into())),
                WireConstraint::new("metricValue", WireOp::Lt, WireValue::Float(0.25)),
                WireConstraint::new("count", WireOp::Ge, WireValue::Int(-3)),
                WireConstraint::new("flag", WireOp::Ne, WireValue::Bool(true)),
                WireConstraint::new("x", WireOp::Eq, WireValue::Null),
            ],
        });
        roundtrip_request(Request::InstancesOfBaseVersion {
            base_version_id: "b".into(),
        });
        roundtrip_request(Request::LatestInstance {
            model_id: "m".into(),
        });
        roundtrip_request(Request::Deploy {
            model_id: "m".into(),
            instance_id: "i".into(),
            environment: "production".into(),
        });
        roundtrip_request(Request::DeployedInstance {
            model_id: "m".into(),
            environment: "production".into(),
        });
        roundtrip_request(Request::AddDependency {
            model_id: "m".into(),
            upstream_id: "u".into(),
        });
        roundtrip_request(Request::RemoveDependency {
            model_id: "m".into(),
            upstream_id: "u".into(),
        });
        roundtrip_request(Request::UpstreamOf {
            model_id: "m".into(),
        });
        roundtrip_request(Request::DownstreamOf {
            model_id: "m".into(),
        });
        roundtrip_request(Request::DeprecateModel {
            model_id: "m".into(),
        });
        roundtrip_request(Request::DeprecateInstance {
            instance_id: "i".into(),
        });
        roundtrip_request(Request::SetStage {
            instance_id: "i".into(),
            stage: "deployed".into(),
        });
        roundtrip_request(Request::StageOf {
            instance_id: "i".into(),
        });
        roundtrip_request(Request::SelectChampion {
            rule_id: "r".into(),
        });
        roundtrip_request(Request::TriggerRule {
            rule_id: "r".into(),
            instance_id: "i".into(),
        });
        roundtrip_request(Request::HealthReport {
            instance_id: "i".into(),
        });
        roundtrip_request(Request::Probe {
            section: "alerts".into(),
        });
        roundtrip_request(Request::Validate {
            kind: "condition".into(),
            content: "gallery_monitor_drift_score > 3.0".into(),
        });
        roundtrip_request(Request::ShipWal {
            from_seq: 42,
            max: 256,
        });
        roundtrip_request(Request::ApplyWal {
            frames: vec![
                WireWalFrame {
                    seq: 43,
                    op: Bytes::from_static(br#"{"Insert":{}}"#),
                },
                WireWalFrame {
                    seq: 44,
                    op: Bytes::from_static(b"{}"),
                },
            ],
        });
        roundtrip_request(Request::ReplStatus);
        roundtrip_request(Request::SetShardRole {
            role: "leader".into(),
        });
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Err {
            code: ErrorCode::NotFound,
            message: "no such model".into(),
        });
        roundtrip_response(Response::ModelInfo(ModelDto {
            id: "m-1".into(),
            base_version_id: "demand".into(),
            project: "p".into(),
            name: "lr".into(),
            owner: "o".into(),
            description: "d".into(),
            metadata_json: "{}".into(),
            created_at: -5,
            prev: Some("m-0".into()),
            deprecated: true,
        }));
        roundtrip_response(Response::InstanceInfo(Box::new(sample_instance())));
        roundtrip_response(Response::MaybeInstance(None));
        roundtrip_response(Response::MaybeInstance(Some(Box::new(sample_instance()))));
        roundtrip_response(Response::Instances(vec![
            sample_instance(),
            sample_instance(),
        ]));
        roundtrip_response(Response::Blob(Bytes::from_static(b"weights")));
        roundtrip_response(Response::MaybeId(Some("i-1".into())));
        roundtrip_response(Response::MaybeId(None));
        roundtrip_response(Response::Ids(vec!["a".into(), "b".into()]));
        roundtrip_response(Response::Stage("monitoring".into()));
        roundtrip_response(Response::Health(HealthDto {
            reproducibility_score: 0.5,
            missing_fields: vec!["training_data".into()],
            has_training: true,
            has_validation: false,
            has_production: true,
            skewed_metrics: vec!["mape".into()],
            score: 0.42,
        }));
        roundtrip_response(Response::Text(
            "# TYPE gallery_alerts_firing gauge\ngallery_alerts_firing 1\n".into(),
        ));
        roundtrip_response(Response::Diagnostics(vec![]));
        roundtrip_response(Response::WalFrames {
            leader_seq: 99,
            frames: vec![WireWalFrame {
                seq: 7,
                op: Bytes::from_static(b"{}"),
            }],
        });
        roundtrip_response(Response::WalFrames {
            leader_seq: 0,
            frames: vec![],
        });
        roundtrip_response(Response::ReplInfo {
            applied_seq: 12,
            role: "follower".into(),
        });
        roundtrip_response(Response::Err {
            code: ErrorCode::WrongShard,
            message: "shard 3 moved".into(),
        });
        roundtrip_response(Response::Diagnostics(vec![
            WireDiagnostic {
                origin: "WHEN".into(),
                source: "metrics.auc > 1.5".into(),
                code: "RL0303".into(),
                severity: 1,
                start: 0,
                end: 17,
                message: "comparison is always false".into(),
                help: Some("no value can satisfy this".into()),
            },
            WireDiagnostic {
                origin: "GIVEN".into(),
                source: "custom == 1".into(),
                code: "RL0101".into(),
                severity: 0,
                start: 0,
                end: 6,
                message: "unknown identifier".into(),
                help: None,
            },
        ]));
    }

    #[test]
    fn validate_request_is_not_mutating() {
        let req = Request::Validate {
            kind: "rule".into(),
            content: "{}".into(),
        };
        assert_eq!(req.method_name(), "validate");
        assert!(!req.is_mutating());
    }

    #[test]
    fn keyed_envelope_roundtrips_and_carries_key() {
        let req = Request::CreateModel {
            project: "p".into(),
            base_version_id: "b".into(),
            name: "n".into(),
            owner: "o".into(),
            description: "d".into(),
            metadata_json: "{}".into(),
        };
        let framed = req.encode_keyed("client-7-op-42");
        let (key, back) = Request::decode_any(framed.clone()).unwrap();
        assert_eq!(key.as_deref(), Some("client-7-op-42"));
        assert_eq!(back, req);
        // Plain decode accepts keyed frames too, dropping the key.
        assert_eq!(Request::decode(framed).unwrap(), req);
        // Plain frames report no key.
        let (key, back) = Request::decode_any(req.encode()).unwrap();
        assert_eq!(key, None);
        assert_eq!(back, req);
    }

    #[test]
    fn nested_keyed_envelope_rejected() {
        let mut w = Writer::new();
        w.put_u8(KEYED_REQUEST_TAG);
        w.put_str("outer");
        w.put_u8(KEYED_REQUEST_TAG);
        w.put_str("inner");
        assert!(Request::decode(w.frame()).is_err());
    }

    #[test]
    fn trace_envelope_roundtrips_with_and_without_key() {
        let req = Request::GetModel {
            model_id: "m".into(),
        };
        let ctx = SpanContext {
            trace_id: 77,
            span_id: 1_000_000,
        };
        // Trace only.
        let decoded = Request::decode_full(req.encode_with(None, Some(ctx))).unwrap();
        assert_eq!(decoded.trace, Some(ctx));
        assert_eq!(decoded.key, None);
        assert_eq!(decoded.request, req);
        // Trace wrapping a keyed request.
        let decoded = Request::decode_full(req.encode_with(Some("k-1"), Some(ctx))).unwrap();
        assert_eq!(decoded.trace, Some(ctx));
        assert_eq!(decoded.key.as_deref(), Some("k-1"));
        assert_eq!(decoded.request, req);
        // Plain decode ignores both envelopes.
        assert_eq!(
            Request::decode(req.encode_with(Some("k-1"), Some(ctx))).unwrap(),
            req
        );
        // Legacy framings report no trace.
        assert_eq!(Request::decode_full(req.encode()).unwrap().trace, None);
        assert_eq!(
            Request::decode_full(req.encode_keyed("k")).unwrap().trace,
            None
        );
    }

    #[test]
    fn misordered_trace_envelopes_rejected() {
        // Trace inside trace.
        let mut w = Writer::new();
        w.put_u8(TRACE_ENVELOPE_TAG);
        w.put_uvarint(1);
        w.put_uvarint(2);
        w.put_u8(TRACE_ENVELOPE_TAG);
        assert!(Request::decode_full(w.frame()).is_err());
        // Trace inside keyed (the trace envelope must be outermost).
        let mut w = Writer::new();
        w.put_u8(KEYED_REQUEST_TAG);
        w.put_str("k");
        w.put_u8(TRACE_ENVELOPE_TAG);
        w.put_uvarint(1);
        w.put_uvarint(2);
        assert!(Request::decode_full(w.frame()).is_err());
    }

    #[test]
    fn method_names_and_mutability() {
        let get = Request::GetModel {
            model_id: "m".into(),
        };
        assert_eq!(get.method_name(), "getModel");
        assert!(!get.is_mutating());
        let up = Request::UploadModel {
            model_id: "m".into(),
            metadata_json: "{}".into(),
            blob: Bytes::new(),
        };
        assert_eq!(up.method_name(), "uploadModel");
        assert!(up.is_mutating());
        assert!(Request::InsertMetric {
            instance_id: "i".into(),
            name: "mape".into(),
            scope: "validation".into(),
            value: 0.1,
            metadata_json: "{}".into(),
        }
        .is_mutating());
        assert!(!Request::ModelQuery {
            constraints: vec![]
        }
        .is_mutating());
    }

    #[test]
    fn replication_requests_are_not_keyed() {
        assert!(!Request::ShipWal {
            from_seq: 0,
            max: 10
        }
        .is_mutating());
        assert!(!Request::ApplyWal { frames: vec![] }.is_mutating());
        assert!(!Request::ReplStatus.is_mutating());
        assert!(!Request::SetShardRole {
            role: "leader".into()
        }
        .is_mutating());
        assert_eq!(Request::ReplStatus.method_name(), "replStatus");
    }

    #[test]
    fn shard_envelope_wraps_any_frame_opaquely() {
        let req = Request::GetModel {
            model_id: "m".into(),
        };
        // Plain inner frame.
        let wrapped = encode_sharded(5, req.encode());
        let (shard, inner) = decode_sharded(wrapped).unwrap().unwrap();
        assert_eq!(shard, 5);
        assert_eq!(Request::decode(inner).unwrap(), req);
        // The inner frame keeps its envelopes byte-for-byte: a keyed,
        // traced frame survives the wrap/unwrap unchanged.
        let ctx = SpanContext {
            trace_id: 9,
            span_id: 10,
        };
        let signed = req.encode_with(Some("k-1"), Some(ctx));
        let (shard, inner) = decode_sharded(encode_sharded(0, signed.clone()))
            .unwrap()
            .unwrap();
        assert_eq!(shard, 0);
        assert_eq!(inner, signed);
        // Unsharded frames pass through as None.
        assert_eq!(decode_sharded(req.encode()).unwrap(), None);
        assert_eq!(decode_sharded(req.encode_keyed("k")).unwrap(), None);
        assert_eq!(
            decode_sharded(req.encode_with(None, Some(ctx))).unwrap(),
            None
        );
    }

    #[test]
    fn truncated_shard_envelope_rejected() {
        let wrapped = encode_sharded(3, Request::ReplStatus.encode());
        let truncated = wrapped.slice(..wrapped.len() - 2);
        assert!(decode_sharded(truncated).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        let mut w = Writer::new();
        w.put_u8(200);
        assert!(Request::decode(w.frame()).is_err());
        let mut w = Writer::new();
        w.put_u8(200);
        assert!(Response::decode(w.frame()).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut w = Writer::new();
        w.put_u8(2); // GetModel
        w.put_str("m");
        w.put_u8(99); // trailing
        assert!(Request::decode(w.frame()).is_err());
    }
}
