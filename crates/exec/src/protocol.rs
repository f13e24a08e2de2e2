//! The coordinator ↔ worker wire protocol.
//!
//! Workers are plain OS processes that serve jobs until told to stop: a
//! length-delimited request/response framing over stdin/stdout
//! (`--serve`) or over a TCP connection (`--listen`). Each
//! frame is a list of strings; a job's request frame is its verb followed
//! by a flag list ([`crate::worker::WorkerArgs`]). All values round-trip
//! exactly: integers
//! as decimal, `f64`s through Rust's shortest-round-trip formatting
//! (guaranteed bit-exact on re-parse), metrics by their stable cache
//! name — so a worker reconstructs precisely the sub-problem the
//! coordinator carved out, and bit-identical results follow from the
//! shared round-1 kernel.
//!
//! # Frame layout
//!
//! ```text
//! [u32 LE payload_len] [u32 LE part_count] ([u32 LE len][utf-8 bytes])*
//! ```
//!
//! The leading payload length lets a reader pull one complete frame with
//! two reads and reject oversized garbage before allocating; a clean EOF
//! **between** frames is `Ok(None)` (the peer hung up), while EOF inside
//! a frame is an error (a torn write).
//!
//! # Request / response verbs
//!
//! * `["hello", proto=…, version=…, config=…]` — the handshake a
//!   coordinator opens every persistent connection with; see
//!   [`hello_request`] and `docs/PROTOCOL.md` §Handshake.
//! * `["coreset", …flags]` — run one round-1 coreset build (flags are
//!   [`crate::worker::WorkerArgs::to_args`]).
//! * `["shutdown"]` — end this connection cleanly (`["shutdown",
//!   "process"]` additionally exits a socket-serving worker process).
//!
//! Replies: `["ok", k=v…]` with [`WorkerReport`]-shaped fields,
//! `["ok", "hello", k=v…]` for an accepted handshake,
//! `["err-hello", reason]` for a rejected handshake (the worker then
//! closes the connection), and `["err", message]` for anything else.
//!
//! The normative wire contract — including the handshake's rejection
//! rules and the float-formatting guarantees — lives in
//! `docs/PROTOCOL.md`.

use std::io::{Read, Write};

use kcenter_core::coreset::CoresetSpec;

/// The metrics the executor can name across a process boundary.
///
/// The in-process engines are generic over any
/// [`Metric`](kcenter_metric::Metric); a worker
/// process, however, must *reconstruct* its metric from a name, so the
/// executor supports exactly the workspace's named point metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// L2 — the paper's experimental metric.
    Euclidean,
    /// L1.
    Manhattan,
    /// L∞.
    Chebyshev,
    /// Angular distance (proper metric over embeddings).
    CosineAngular,
}

impl MetricKind {
    /// Every supported metric.
    pub const ALL: [MetricKind; 4] = [
        MetricKind::Euclidean,
        MetricKind::Manhattan,
        MetricKind::Chebyshev,
        MetricKind::CosineAngular,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Euclidean => "euclidean",
            MetricKind::Manhattan => "manhattan",
            MetricKind::Chebyshev => "chebyshev",
            MetricKind::CosineAngular => "cosine-angular",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<MetricKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Expands to a `match` over a [`MetricKind`] that binds the **concrete**
/// metric value to `$m` in `$body`, so the distance kernels stay
/// monomorphized: a `dyn Metric` vtable call per pair would be
/// measurable.
#[macro_export]
macro_rules! with_metric {
    ($kind:expr, $m:ident => $body:expr) => {
        match $kind {
            $crate::protocol::MetricKind::Euclidean => {
                let $m = &::kcenter_metric::Euclidean;
                $body
            }
            $crate::protocol::MetricKind::Manhattan => {
                let $m = &::kcenter_metric::Manhattan;
                $body
            }
            $crate::protocol::MetricKind::Chebyshev => {
                let $m = &::kcenter_metric::Chebyshev;
                $body
            }
            $crate::protocol::MetricKind::CosineAngular => {
                let $m = &::kcenter_metric::CosineAngular;
                $body
            }
        }
    };
}

/// Formats a [`CoresetSpec`] for the wire (`mult:µ`, `fixed:τ`, `eps:ε`).
pub fn format_spec(spec: &CoresetSpec) -> String {
    match *spec {
        CoresetSpec::EpsStop { eps } => format!("eps:{eps}"),
        CoresetSpec::Fixed { tau } => format!("fixed:{tau}"),
        CoresetSpec::Multiplier { mu } => format!("mult:{mu}"),
    }
}

/// Parses a wire-format [`CoresetSpec`].
pub fn parse_spec(s: &str) -> Option<CoresetSpec> {
    let (kind, value) = s.split_once(':')?;
    Some(match kind {
        "eps" => CoresetSpec::EpsStop {
            eps: value.parse().ok()?,
        },
        "fixed" => CoresetSpec::Fixed {
            tau: value.parse().ok()?,
        },
        "mult" => CoresetSpec::Multiplier {
            mu: value.parse().ok()?,
        },
        _ => return None,
    })
}

/// Upper bound on a single frame's payload. Requests are flag lists and
/// replies are short reports — anything near this limit is corruption,
/// not traffic (artifacts travel through the filesystem, never the pipe).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one length-delimited frame and flushes, so a blocked reader on
/// the other end of the pipe wakes immediately.
///
/// # Errors
///
/// Any transport error (a closed pipe surfaces as `BrokenPipe`, which the
/// fleet treats as worker death), or `InvalidInput` for a frame that
/// would exceed [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, parts: &[String]) -> std::io::Result<()> {
    let payload_len = 4 + parts.iter().map(|p| 4 + p.len()).sum::<usize>();
    if payload_len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame payload of {payload_len} bytes exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut buf = Vec::with_capacity(4 + payload_len);
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for part in parts {
        buf.extend_from_slice(&(part.len() as u32).to_le_bytes());
        buf.extend_from_slice(part.as_bytes());
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, or `Ok(None)` on a clean EOF between frames.
///
/// # Errors
///
/// `UnexpectedEof` for EOF *inside* a frame (a torn write),
/// `InvalidData` for an oversized or structurally malformed payload
/// (bad counts, non-UTF-8 parts).
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<String>>> {
    let mut len_bytes = [0u8; 4];
    // A clean hang-up arrives exactly here: zero bytes at a frame start.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length header",
                ))
            }
            n => filled += n,
        }
    }
    let payload_len = u32::from_le_bytes(len_bytes) as usize;
    if !(4..=MAX_FRAME_BYTES).contains(&payload_len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("implausible frame payload length {payload_len}"),
        ));
    }
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let mut parts = Vec::with_capacity(count.min(1024));
    let mut at = 4;
    for _ in 0..count {
        if at + 4 > payload.len() {
            return Err(bad("frame part count overruns the payload"));
        }
        let len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        if at + len > payload.len() {
            return Err(bad("frame part length overruns the payload"));
        }
        let part = std::str::from_utf8(&payload[at..at + len])
            .map_err(|_| bad("frame part is not UTF-8"))?;
        parts.push(part.to_string());
        at += len;
    }
    if at != payload.len() {
        return Err(bad("trailing bytes after the last frame part"));
    }
    Ok(Some(parts))
}

/// Version of the framed protocol itself. Bumped on any incompatible
/// change to the frame layout, the verb set, or a verb's semantics —
/// including a `kcenter_store::CODEC_VERSION` bump, which changes what a
/// `coreset` job reads; a worker speaking a different version rejects the
/// handshake rather than risking an undefined result.
///
/// Version 2: codec v2 shards, and no `probe` verb. Version 3: no `merge`
/// verb, and no reply that blames another partition's artifact: the
/// coordinator reads every coreset artifact itself.
pub const PROTOCOL_VERSION: u32 = 3;

/// Pulls `key=value` out of a hello frame's fields.
fn hello_field<'a>(parts: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    parts.iter().find_map(|p| p.strip_prefix(&prefix))
}

/// The handshake frame a coordinator opens every persistent connection
/// with: `["hello", "proto=3", "version=<crate>", "config=<fp|any>"]`.
///
/// `config` is the coordinator's 128-bit configuration fingerprint as 32
/// lowercase hex digits, or the literal `any` when it does not pin one —
/// a worker started with `--pin-config` rejects both a mismatched
/// fingerprint and an unpinned coordinator.
pub fn hello_request(config: Option<u128>) -> Vec<String> {
    vec![
        "hello".into(),
        format!("proto={PROTOCOL_VERSION}"),
        format!("version={}", env!("CARGO_PKG_VERSION")),
        match config {
            Some(fp) => format!("config={fp:032x}"),
            None => "config=any".into(),
        },
    ]
}

/// The worker's side of the handshake: validates a `hello` request
/// against this worker's protocol version and (optionally) pinned
/// configuration fingerprint.
///
/// # Errors
///
/// A human-readable rejection reason — sent back as
/// `["err-hello", reason]` before the worker closes the connection.
pub fn check_hello_request(parts: &[String], pinned_config: Option<u128>) -> Result<(), String> {
    let proto: u32 = hello_field(parts, "proto")
        .and_then(|v| v.parse().ok())
        .ok_or("hello carries no parsable proto= field")?;
    if proto != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: coordinator speaks v{proto}, this worker speaks v{PROTOCOL_VERSION}"
        ));
    }
    if let Some(pin) = pinned_config {
        match hello_field(parts, "config") {
            Some("any") | None => {
                return Err(format!(
                    "this worker is pinned to config {pin:032x} but the coordinator announced none"
                ))
            }
            Some(hex) => {
                let announced = u128::from_str_radix(hex, 16)
                    .map_err(|_| format!("unparsable config fingerprint {hex:?}"))?;
                if announced != pin {
                    return Err(format!(
                        "config fingerprint mismatch: coordinator announced {hex}, \
                         this worker is pinned to {pin:032x}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The `["ok", "hello", k=v…]` frame a worker acknowledges an accepted
/// handshake with.
pub fn hello_ack() -> Vec<String> {
    vec![
        "ok".into(),
        "hello".into(),
        format!("proto={PROTOCOL_VERSION}"),
        format!("version={}", env!("CARGO_PKG_VERSION")),
    ]
}

/// The coordinator's side of the handshake: validates the first frame a
/// worker sends back after `hello`.
///
/// # Errors
///
/// The rejection reason (the worker's own, for an `err-hello` reply; a
/// coordinator-side diagnosis for a malformed or wrong-version ack).
pub fn parse_hello_ack(parts: &[String]) -> Result<(), String> {
    match (
        parts.first().map(String::as_str),
        parts.get(1).map(String::as_str),
    ) {
        (Some("ok"), Some("hello")) => {
            let proto: u32 = hello_field(parts, "proto")
                .and_then(|v| v.parse().ok())
                .ok_or("hello ack carries no parsable proto= field")?;
            if proto != PROTOCOL_VERSION {
                return Err(format!(
                    "protocol version mismatch: worker speaks v{proto}, \
                     this coordinator speaks v{PROTOCOL_VERSION}"
                ));
            }
            Ok(())
        }
        (Some("err-hello"), reason) => Err(reason.map_or_else(
            || "handshake rejected without a reason".to_string(),
            str::to_string,
        )),
        _ => Err(format!("malformed hello reply: {parts:?}")),
    }
}

/// What a worker reports in the `ok` reply to a successful job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerReport {
    /// Points in the shard.
    pub points: usize,
    /// Coreset points written.
    pub coreset: usize,
    /// In-worker wall clock of the build (shard load → artifact rename),
    /// in microseconds.
    pub build_micros: u64,
}

impl WorkerReport {
    /// The `["ok", k=v…]` reply frame a persistent worker sends.
    pub fn to_reply(self) -> Vec<String> {
        vec![
            "ok".into(),
            format!("points={}", self.points),
            format!("coreset={}", self.coreset),
            format!("build_micros={}", self.build_micros),
        ]
    }

    /// Parses an `["ok", k=v…]` reply frame (the reverse of
    /// [`WorkerReport::to_reply`]).
    pub fn from_reply(parts: &[String]) -> Option<WorkerReport> {
        if parts.first().map(String::as_str) != Some("ok") {
            return None;
        }
        let mut points = None;
        let mut coreset = None;
        let mut build_micros = None;
        for field in &parts[1..] {
            let (key, value) = field.split_once('=')?;
            match key {
                "points" => points = value.parse().ok(),
                "coreset" => coreset = value.parse().ok(),
                "build_micros" => build_micros = value.parse().ok(),
                _ => {}
            }
        }
        Some(WorkerReport {
            points: points?,
            coreset: coreset?,
            build_micros: build_micros?,
        })
    }

    /// The `["ok", k=v…]` reply frame a persistent worker sends, with
    /// observability extras appended (see [`WorkerTelemetry`]).
    pub fn to_reply_with(self, telemetry: &WorkerTelemetry) -> Vec<String> {
        let mut reply = self.to_reply();
        reply.extend(telemetry.reply_fields());
        reply
    }
}

/// Observability extras a persistent worker piggybacks on an `ok` job
/// reply, next to the [`WorkerReport`] fields.
///
/// Wire form (§2 of `docs/PROTOCOL.md` — unknown reply keys are ignored,
/// so these fields ride along without a protocol bump):
///
/// * `span=<id>` — the coordinator's span context (`--span` on the job
///   flags) echoed back, attributing the reply to the round it belongs
///   to even in captured frame logs.
/// * `m.<name>=<delta>` — how much the worker's own metrics registry
///   counter `<name>` grew while running this job (zero deltas are not
///   sent). The coordinator folds these into its registry under
///   `exec.worker.<name>`, producing one merged cross-process view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// The job's span context, echoed from the request.
    pub span: Option<u64>,
    /// `(counter name, delta)` pairs, in registry (sorted) order.
    pub counters: Vec<(String, u64)>,
}

impl WorkerTelemetry {
    /// The deltas between two [`kcenter_obs::counter_values`] snapshots
    /// taken around a job, with `span` echoed from the request.
    pub fn from_counter_snapshots(
        span: Option<u64>,
        before: &[(String, u64)],
        after: &[(String, u64)],
    ) -> WorkerTelemetry {
        let counters = after
            .iter()
            .filter_map(|(name, now)| {
                let was = before
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |&(_, v)| v);
                let delta = now.saturating_sub(was);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect();
        WorkerTelemetry { span, counters }
    }

    /// The `k=v` reply parts these extras append to an `ok` frame.
    pub fn reply_fields(&self) -> Vec<String> {
        let mut fields = Vec::with_capacity(self.counters.len() + 1);
        if let Some(span) = self.span {
            fields.push(format!("span={span}"));
        }
        for (name, delta) in &self.counters {
            fields.push(format!("m.{name}={delta}"));
        }
        fields
    }

    /// Extracts the telemetry fields from an `ok` reply frame (absent
    /// fields — an older worker — parse as the empty default).
    pub fn from_reply(parts: &[String]) -> WorkerTelemetry {
        let mut telemetry = WorkerTelemetry::default();
        for field in parts.iter().skip(1) {
            let Some((key, value)) = field.split_once('=') else {
                continue;
            };
            if key == "span" {
                telemetry.span = value.parse().ok();
            } else if let Some(name) = key.strip_prefix("m.") {
                if let Ok(delta) = value.parse() {
                    telemetry.counters.push((name.to_string(), delta));
                }
            }
        }
        telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_round_trip() {
        for kind in MetricKind::ALL {
            assert_eq!(MetricKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MetricKind::parse("hamming"), None);
    }

    #[test]
    fn spec_wire_format_round_trips_exactly() {
        let specs = [
            CoresetSpec::Multiplier { mu: 8 },
            CoresetSpec::Fixed { tau: 1234 },
            CoresetSpec::EpsStop { eps: 0.1 }, // 0.1 is not dyadic: bit-exactness matters
            CoresetSpec::EpsStop {
                eps: 1.0 / 3.0 + f64::EPSILON,
            },
        ];
        for spec in specs {
            let wire = format_spec(&spec);
            let back = parse_spec(&wire).unwrap();
            match (spec, back) {
                (CoresetSpec::EpsStop { eps: a }, CoresetSpec::EpsStop { eps: b }) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "eps drifted through the wire")
                }
                (a, b) => assert_eq!(a, b),
            }
        }
        assert_eq!(parse_spec("mult"), None);
        assert_eq!(parse_spec("mult:x"), None);
        assert_eq!(parse_spec("weird:1"), None);
    }

    #[test]
    fn frames_round_trip_exactly() {
        let cases: Vec<Vec<String>> = vec![
            vec![],
            vec!["shutdown".into()],
            vec!["coreset".into(), "--shard".into(), "@store/a.kca".into()],
            vec!["coreset".into(), String::new(), "πδ≠ascii".into()],
            vec!["x".repeat(10_000)],
        ];
        let mut wire = Vec::new();
        for parts in &cases {
            write_frame(&mut wire, parts).unwrap();
        }
        let mut reader = wire.as_slice();
        for parts in &cases {
            assert_eq!(read_frame(&mut reader).unwrap().as_ref(), Some(parts));
        }
        // Clean EOF between frames.
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn torn_and_malformed_frames_are_errors_not_hangs() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &["ok".to_string(), "points=3".to_string()]).unwrap();
        // EOF inside the payload.
        for cut in 1..wire.len() {
            let mut torn = &wire[..cut];
            assert!(read_frame(&mut torn).is_err(), "cut at {cut} not rejected");
        }
        // Oversized length word.
        let mut huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 8]);
        assert!(read_frame(&mut huge.as_slice()).is_err());
        // Part length overrunning the payload.
        let mut overrun = Vec::new();
        overrun.extend_from_slice(&12u32.to_le_bytes()); // payload_len
        overrun.extend_from_slice(&1u32.to_le_bytes()); // one part
        overrun.extend_from_slice(&100u32.to_le_bytes()); // of length 100?!
        overrun.extend_from_slice(&[0; 4]);
        assert!(read_frame(&mut overrun.as_slice()).is_err());
        // Non-UTF-8 part bytes.
        let mut binary = Vec::new();
        binary.extend_from_slice(&10u32.to_le_bytes());
        binary.extend_from_slice(&1u32.to_le_bytes());
        binary.extend_from_slice(&2u32.to_le_bytes());
        binary.extend_from_slice(&[0xFF, 0xFE]);
        assert!(read_frame(&mut binary.as_slice()).is_err());
        // Oversized writes are refused before touching the transport.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &["y".repeat(MAX_FRAME_BYTES)]).is_err());
        assert!(sink.is_empty());
    }

    #[test]
    fn hello_handshake_accepts_matching_peers() {
        let request = hello_request(None);
        assert!(check_hello_request(&request, None).is_ok());
        let pinned = hello_request(Some(0xdead_beef));
        assert!(check_hello_request(&pinned, Some(0xdead_beef)).is_ok());
        // An unpinned worker accepts any announced config.
        assert!(check_hello_request(&pinned, None).is_ok());
        assert!(parse_hello_ack(&hello_ack()).is_ok());
    }

    #[test]
    fn hello_handshake_rejects_mismatches_with_reasons() {
        // Config fingerprint mismatch.
        let err = check_hello_request(&hello_request(Some(0x1234)), Some(0x5678)).unwrap_err();
        assert!(err.contains("mismatch"), "{err:?}");
        // A pinned worker refuses an unpinned coordinator.
        let err = check_hello_request(&hello_request(None), Some(0x5678)).unwrap_err();
        assert!(err.contains("announced none"), "{err:?}");
        // Protocol version mismatch, both directions. A proto=1 peer is a
        // build from before codec v2: its shards would fail to decode. A
        // proto=2 peer still sends `merge` jobs and their artifact-error
        // reply.
        for old in ["proto=0", "proto=1", "proto=2"] {
            let request = vec!["hello".to_string(), old.to_string()];
            assert!(check_hello_request(&request, None)
                .unwrap_err()
                .contains("protocol version mismatch"));
        }
        let old_ack = vec![
            "ok".to_string(),
            "hello".to_string(),
            "proto=999".to_string(),
        ];
        assert!(parse_hello_ack(&old_ack)
            .unwrap_err()
            .contains("protocol version mismatch"));
        // err-hello replies surface the worker's own reason.
        let rejected = vec!["err-hello".to_string(), "wrong tau".to_string()];
        assert_eq!(parse_hello_ack(&rejected).unwrap_err(), "wrong tau");
        // Anything else is malformed.
        assert!(parse_hello_ack(&["ok".to_string()]).is_err());
    }

    #[test]
    fn protocol_version_moves_with_the_codec_version() {
        assert_eq!(
            (PROTOCOL_VERSION, kcenter_store::CODEC_VERSION),
            (3, 2),
            "a CODEC_VERSION bump changes what a coreset job reads, so it must \
             bump PROTOCOL_VERSION too (and update both numbers here)"
        );
    }

    #[test]
    fn report_reply_frames_round_trip() {
        let report = WorkerReport {
            points: 512,
            coreset: 64,
            build_micros: 987,
        };
        assert_eq!(WorkerReport::from_reply(&report.to_reply()), Some(report));
        assert_eq!(WorkerReport::from_reply(&["err".to_string()]), None);
        assert_eq!(
            WorkerReport::from_reply(&["ok".to_string(), "points=1".to_string()]),
            None
        );
    }

    #[test]
    fn telemetry_rides_ok_replies_and_older_peers_interoperate() {
        let report = WorkerReport {
            points: 512,
            coreset: 64,
            build_micros: 987,
        };
        let before = vec![("metric.matrix.builds".to_string(), 2)];
        let after = vec![
            ("metric.matrix.builds".to_string(), 5),
            ("core.gmm.full_scans".to_string(), 0),
            ("core.gmm.steps".to_string(), 1),
        ];
        let telemetry = WorkerTelemetry::from_counter_snapshots(Some(42), &before, &after);
        // Zero deltas are dropped; new-in-after counters diff against 0.
        assert_eq!(
            telemetry.counters,
            vec![
                ("metric.matrix.builds".to_string(), 3),
                ("core.gmm.steps".to_string(), 1),
            ]
        );
        let reply = report.to_reply_with(&telemetry);
        // The report parser ignores the extra fields (older coordinator)…
        assert_eq!(WorkerReport::from_reply(&reply), Some(report));
        // …and the telemetry parser recovers them exactly.
        assert_eq!(WorkerTelemetry::from_reply(&reply), telemetry);
        // A bare reply (older worker) parses to the empty default.
        assert_eq!(
            WorkerTelemetry::from_reply(&report.to_reply()),
            WorkerTelemetry::default()
        );
    }
}
