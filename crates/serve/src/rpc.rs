//! Typed request/response messages and their byte codec.
//!
//! The encoding is a deliberately boring hand-rolled tag-length-value
//! scheme (this environment has no serde, no protobuf): one tag byte
//! selects the message, fixed-width big-endian integers and
//! bit-preserved `f64`s carry the fields, strings and vectors carry a
//! `u32` count first. Every message round-trips exactly —
//! property-tested in `tests/protocol.rs` — and every malformed input
//! decodes to a typed [`DecodeError`] instead of a panic or a wild
//! allocation: embedded lengths are validated against the bytes
//! actually remaining *before* any buffer is sized.
//!
//! Each message is **declared once**: a `wire_struct!`/`wire_enum!`
//! declaration is the type *and* its codec, so declaration order is
//! wire order, a tag is written next to its variant, and an encoder
//! cannot drift from its decoder. `tests/protocol.rs` holds
//! [`Request::TAGS`]/[`Response::TAGS`] against ARCHITECTURE.md and
//! the encodings against checked-in golden bytes.
//!
//! Keeping these types separate from the framing ([`crate::wire`]) and
//! the transport ([`crate::server`]) is the point of the module split:
//! a gRPC front-end would replace the codec, not the daemon.

use vc_engine::{BatchStrategy, Placed, PlacementRequest};

/// Ceiling on embedded collection lengths (batch entries, node lists)
/// — a second line of defence behind the remaining-bytes check, so a
/// forged count cannot reserve gigabytes even if each element were
/// zero-sized.
pub const MAX_VEC: u32 = 1 << 20;

/// A decoding failure: the payload was framed correctly but is not a
/// valid message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    UnexpectedEof,
    /// An unknown discriminant byte.
    BadTag {
        /// Which discriminant was being decoded.
        what: &'static str,
        /// The byte found.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    Utf8,
    /// Bytes remained after the message ended.
    Trailing {
        /// How many.
        extra: usize,
    },
    /// An embedded length exceeds the bytes remaining (or [`MAX_VEC`])
    /// — rejected before any allocation.
    BadLength {
        /// Which field.
        what: &'static str,
        /// The advertised length.
        len: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "payload ended mid-message"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            DecodeError::Utf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::Trailing { extra } => {
                write!(f, "{extra} bytes trail the decoded message")
            }
            DecodeError::BadLength { what, len } => {
                write!(f, "{what} length {len} exceeds the remaining payload")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// The codec: reader, `Wire` and its primitives, the declaration macros.

/// A bounds-checked reader over one payload: the unread tail.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self.0.split_at_checked(n).ok_or(DecodeError::UnexpectedEof)?;
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::UnexpectedEof)
    }

    /// Reads a `u32` element count, validating it against both
    /// [`MAX_VEC`] and the bytes actually remaining (each element costs
    /// at least `min_elem_bytes`) **before** the caller allocates.
    fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let len = u32::get(self, what)?;
        let need = (len as usize).saturating_mul(min_elem_bytes.max(1));
        if len > MAX_VEC || need > self.0.len() {
            return Err(DecodeError::BadLength { what, len });
        }
        Ok(len as usize)
    }
}

/// A type with exactly one byte encoding.
trait Wire: Sized {
    /// The fewest bytes any value of this type encodes to — the floor
    /// [`Reader::len`] holds a forged element count against.
    const MIN_BYTES: usize;

    fn put(&self, buf: &mut Vec<u8>);

    /// `what` is the name of the field being read; lists report it in
    /// [`DecodeError::BadLength`].
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError>;
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_be_bytes());
            }

            fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<Self, DecodeError> {
                r.array().map(<$ty>::from_be_bytes)
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        match u8::get(r, what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        u64::get(r, what).map(f64::from_bits)
    }
}

impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<Self, DecodeError> {
        let len = r.len("string", 1)?;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| DecodeError::Utf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        let n = r.len(what, T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r, what)?);
        }
        Ok(items)
    }
}

/// Declares a message struct and its codec from the one field list:
/// fields travel in declaration order, each named after itself.
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
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }

            fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<Self, DecodeError> {
                Ok($name {
                    $($field: Wire::get(r, stringify!($field))?,)*
                })
            }
        }
    };
}

/// A field's name in decode errors: its own, unless it says otherwise.
macro_rules! wire_label {
    ($name:ident) => { stringify!($name) };
    ($name:ident $label:literal) => { $label };
}

const fn min_of(xs: &[usize]) -> usize {
    match xs {
        [] => usize::MAX,
        [x, rest @ ..] => {
            let m = min_of(rest);
            if *x < m { *x } else { m }
        }
    }
}

/// Declares a tagged enum and its codec: one tag byte (`= N` after
/// each variant, the only place the number is written), then the
/// variant's payload in declaration order. Tuple payloads carry a name
/// (`Variant(name: Ty)`), a field may rename itself for decode errors
/// (`field: Ty as "label"`), and `$what` names the tag in
/// [`DecodeError::BadTag`]. `@codec` implements the codec alone, for an
/// enum declared elsewhere.
macro_rules! wire_enum {
    (@codec $what:literal; $name:ident {
        $(
            $variant:ident
            $({ $($field:ident: $fty:ty $(as $flabel:literal)?,)* })?
            $(($bind:ident: $tty:ty))?
            = $tag:literal,
        )*
    }) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 1 + min_of(&[$(
                0 $($(+ <$fty as Wire>::MIN_BYTES)*)? $(+ <$tty as Wire>::MIN_BYTES)?,
            )*]);
            fn put(&self, buf: &mut Vec<u8>) {
                match self {$(
                    $name::$variant $({ $($field,)* })? $(($bind))? => {
                        buf.push($tag);
                        $($($field.put(buf);)*)?
                        $($bind.put(buf);)?
                    }
                )*}
            }

            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
                match u8::get(r, what)? {
                    $($tag => Ok($name::$variant
                        $({ $($field: Wire::get(r, wire_label!($field $($flabel)?))?,)* })?
                        $((<$tty as Wire>::get(r, stringify!($bind))?))?
                    ),)*
                    tag => Err(DecodeError::BadTag { what: $what, tag }),
                }
            }
        }
    };
    (
        $what:literal;
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty $(as $flabel:literal)?,)* })?
                $(($bind:ident: $tty:ty))?
                = $tag:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $fty,)* })? $(($tty))?,
            )*
        }

        impl $name {
            /// Every `(tag, variant name)`, declaration order.
            pub const TAGS: &'static [(u8, &'static str)] =
                &[$(($tag, stringify!($variant)),)*];
        }

        wire_enum! { @codec $what; $name {
            $(
                $variant
                $({ $($field: $fty $(as $flabel)?,)* })?
                $(($bind: $tty))?
                = $tag,
            )*
        }}
    };
}

fn encode(message: &impl Wire) -> Vec<u8> {
    let mut buf = Vec::new();
    message.put(&mut buf);
    buf
}

fn decode<T: Wire>(payload: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader(payload);
    let message = T::get(&mut r, "message")?;
    match r.0.len() {
        0 => Ok(message),
        extra => Err(DecodeError::Trailing { extra }),
    }
}

// ---------------------------------------------------------------------
// The messages.

wire_enum! { @codec "strategy"; BatchStrategy {
    FirstFit = 0,
    BestScore = 1,
}}

wire_enum! {
    "request";
    /// What a client can ask the daemon.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Liveness probe.
        Ping = 1,
        /// Place one container.
        Place {
            /// The admission request.
            req: WireRequest,
            /// Machine-selection strategy.
            strategy: BatchStrategy,
        } = 2,
        /// Place a batch atomically evaluated (engine `place_batch`).
        PlaceBatch {
            /// The admission requests, decision order.
            reqs: Vec<WireRequest> as "batch",
            /// Machine-selection strategy for the whole batch.
            strategy: BatchStrategy,
        } = 3,
        /// Release a placement by ticket.
        Release {
            /// The ticket returned at placement.
            ticket: u64,
        } = 4,
        /// Engine + daemon counters.
        Stats = 5,
        /// Thread-level occupancy of one machine.
        Occupancy {
            /// Machine id.
            machine: u32,
        } = 6,
        /// Can-we-fit probe: no reservation, advisory.
        CanFit {
            /// The hypothetical admission request.
            req: WireRequest,
        } = 7,
        /// Pause the background rebalance loop.
        PauseRebalance {
            /// Control token; empty when the client has none. A daemon
            /// configured with a token refuses mismatches with
            /// [`ErrorCode::Unauthorized`].
            token: String,
        } = 8,
        /// Resume the background rebalance loop.
        ResumeRebalance {
            /// Control token; empty when the client has none.
            token: String,
        } = 9,
        /// Stop admitting placements; releases keep working.
        Drain {
            /// Control token; empty when the client has none.
            token: String,
        } = 10,
        /// Stop the daemon: the accept loop and the rebalance loop exit.
        Shutdown {
            /// Control token; empty when the client has none.
            token: String,
        } = 11,
    }
}

wire_enum! {
    "response";
    /// What the daemon answers.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Answer to [`Request::Ping`].
        Pong = 129,
        /// Answer to [`Request::Place`].
        Place(outcome: PlaceOutcome) = 130,
        /// Answer to [`Request::PlaceBatch`], one outcome per request.
        Batch(batch: Vec<PlaceOutcome>) = 131,
        /// Answer to [`Request::Release`]: the capacity is free again.
        Released = 132,
        /// Answer to [`Request::Stats`].
        Stats(stats: ServiceStats) = 133,
        /// Answer to [`Request::Occupancy`].
        Occupancy(occupancy: OccupancyInfo) = 134,
        /// Answer to [`Request::CanFit`].
        CanFit(fit: FitInfo) = 135,
        /// Answer to a control verb (pause/resume/drain/shutdown): the
        /// lifecycle state after the verb applied.
        Ack(ack: ControlAck) = 136,
        /// The request failed; the connection may have been closed (for
        /// protocol errors) or stays usable (for domain errors).
        Error(error: RpcError) = 137,
    }
}

wire_struct! {
    /// One admission request on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireRequest {
        /// Workload name.
        pub workload: String,
        /// vCPUs requested.
        pub vcpus: u32,
        /// Performance goal as a fraction of baseline (0.0 = best effort).
        pub goal_frac: f64,
        /// Seed for the two probe measurements.
        pub probe_seed: u64,
    }
}

impl WireRequest {
    /// The engine-side request this wire request describes.
    pub fn to_engine(&self) -> PlacementRequest {
        PlacementRequest {
            workload: self.workload.clone(),
            vcpus: self.vcpus as usize,
            goal_frac: self.goal_frac,
            probe_seed: self.probe_seed,
        }
    }
}

wire_enum! {
    "outcome";
    /// One placement decision on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub enum PlaceOutcome {
        /// The container was placed and its capacity reserved.
        Placed(placed: PlacedInfo) = 0,
        /// No machine could host the request.
        Rejected {
            /// Human-readable reason.
            reason: String,
        } = 1,
    }
}

wire_struct! {
    /// The wire projection of an engine [`Placed`] handle. The ticket is
    /// the client's release token; the rest is telemetry.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PlacedInfo {
        /// Engine-wide container identity; pass to [`Request::Release`].
        pub ticket: u64,
        /// Machine the container landed on (at admission time — a later
        /// rebalance move may re-home it; the ticket stays valid).
        pub machine: u32,
        /// 1-based important-placement id used.
        pub placement_id: u32,
        /// NUMA nodes reserved.
        pub nodes: Vec<u32>,
        /// Hardware threads reserved.
        pub threads: u32,
        /// Predicted (interference-adjusted) performance.
        pub predicted_perf: f64,
        /// Co-location penalty applied, in `(0, 1]`.
        pub interference_penalty: f64,
        /// Absolute performance the goal translated to (0 if best-effort).
        pub goal_perf: f64,
        /// Whether the prediction clears the goal.
        pub goal_met: bool,
    }
}

impl PlacedInfo {
    /// Projects an engine handle onto the wire.
    pub fn from_placed(p: &Placed) -> Self {
        PlacedInfo {
            ticket: p.ticket.0,
            machine: p.machine.0 as u32,
            placement_id: p.placement_id as u32,
            nodes: p.spec.nodes.iter().map(|n| n.0 as u32).collect(),
            threads: p.threads.len() as u32,
            predicted_perf: p.predicted_perf,
            interference_penalty: p.interference_penalty,
            goal_perf: p.goal_perf,
            goal_met: p.goal_met,
        }
    }
}

wire_struct! {
    /// Engine + daemon counters, one flat snapshot.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct ServiceStats {
        /// Machines in the fleet.
        pub machines: u32,
        /// Containers currently resident.
        pub residents: u64,
        /// Requests the daemon has served (all verbs).
        pub requests: u64,
        /// Connections accepted.
        pub connections: u64,
        /// Framing/decoding failures (each closed its connection).
        pub protocol_errors: u64,
        /// Engine candidate evaluations.
        pub evaluations: u64,
        /// Engine BestScore dry-run offers.
        pub offers: u64,
        /// Successful releases.
        pub releases: u64,
        /// Rejected releases (unknown tickets).
        pub release_failures: u64,
        /// Engine-wide rebalance passes (loop + any manual callers).
        pub rebalance_passes: u64,
        /// Passes the daemon's background loop completed.
        pub loop_passes: u64,
        /// Migrations those loop passes executed.
        pub loop_migrations: u64,
        /// Re-moves the cooldown hysteresis suppressed.
        pub suppressed_by_cooldown: u64,
        /// Cost-justified moves deferred by the per-pass moved-GB cap.
        pub blocked_by_gb_cap: u64,
        /// Hosts skipped shard-wide by availability sketches (their
        /// capacity summaries were never read).
        pub sketch_skips: u64,
        /// Shards whose sketch admitted a walk down to the hosts.
        pub sketch_admits: u64,
        /// Admitted shards where no host survived the summary check (the
        /// sketch's per-axis marginals were satisfied by different hosts).
        pub sketch_stale: u64,
        /// Data the loop's migrations moved (GB).
        pub moved_gb: f64,
        /// Whether the rebalance loop is paused.
        pub paused: bool,
        /// Whether the daemon is draining (rejecting new placements).
        pub draining: bool,
    }
}

wire_struct! {
    /// Thread-level occupancy of one machine.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OccupancyInfo {
        /// Machine id.
        pub machine: u32,
        /// Hardware threads in use.
        pub used: u32,
        /// Hardware threads total.
        pub total: u32,
        /// Per-node `(node, used, capacity)`, node order.
        pub nodes: Vec<NodeUse>,
    }
}

wire_struct! {
    /// One NUMA node's thread usage.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NodeUse {
        /// Node id.
        pub node: u32,
        /// Hardware threads in use.
        pub used: u32,
        /// Hardware threads total.
        pub capacity: u32,
    }
}

wire_struct! {
    /// Answer to a capacity probe (see `PlacementEngine::can_fit`).
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct FitInfo {
        /// Hosts whose capacity summary still admits the request.
        pub hosts: u64,
        /// Machine classes predicted to clear the goal.
        pub goal_clearing_classes: u32,
        /// Best idle-host predicted performance.
        pub best_predicted: f64,
        /// Absolute performance the goal translates to.
        pub goal_perf: f64,
        /// Hosts this probe skipped shard-wide via availability sketches
        /// (their summaries were never read; the count in `hosts` is still
        /// exact — a sketch-zero proves every summary would have refused).
        pub sketch_skipped: u64,
    }
}

wire_struct! {
    /// Lifecycle state echoed by control verbs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ControlAck {
        /// Rebalance loop paused.
        pub paused: bool,
        /// New placements refused.
        pub draining: bool,
        /// Daemon exiting.
        pub shutting_down: bool,
    }
}

wire_struct! {
    /// Why a request failed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RpcError {
        /// Machine-readable failure class.
        pub code: ErrorCode,
        /// Human-readable detail.
        pub message: String,
    }
}

wire_enum! {
    "error code";
    /// Machine-readable failure classes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        /// The bytes on the wire were not a valid request (framing or
        /// decoding failure). The daemon closes the connection after
        /// sending this.
        Protocol = 0,
        /// The daemon is draining: new placements are refused, releases
        /// still work.
        Draining = 1,
        /// The daemon is shutting down.
        ShuttingDown = 2,
        /// The ticket is not live in the served engine (double release,
        /// or a ticket from a different daemon).
        UnknownTicket = 3,
        /// The machine id is outside the fleet.
        UnknownMachine = 4,
        /// A control verb (pause/resume/drain/shutdown) arrived without the
        /// daemon's control token. The verb did not apply; the connection
        /// stays usable for data verbs.
        Unauthorized = 5,
    }
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; no allocation is sized from an unvalidated
    /// embedded length.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        decode(payload)
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; no allocation is sized from an unvalidated
    /// embedded length.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        decode(payload)
    }
}
