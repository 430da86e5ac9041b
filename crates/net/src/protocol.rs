//! The CWC wire protocol.
//!
//! Binary, length-prefixed frames over a persistent per-phone connection.
//! The vocabulary mirrors the paper's prototype message flow (§6):
//! registration with CPU specs, bandwidth probes, per-partition executable
//! and input shipping, completion reports carrying the measured local
//! execution time (which feeds the scheduler's prediction update), online
//! failure reports carrying migration state, and application-layer
//! keep-alives for offline-failure detection.
//!
//! ## Framing
//!
//! ```text
//! +----------------+---------------+-----------+------------------+
//! | u32 BE length  | u32 BE CRC32  | u8 tag    | payload ...      |
//! +----------------+---------------+-----------+------------------+
//! ```
//!
//! `length` counts tag + payload; the CRC32 (IEEE 802.3 polynomial, the
//! zlib/Ethernet checksum) covers the same bytes. [`crc32`] computes it
//! slicing-by-16 in safe Rust: sixteen 256-entry tables fold sixteen bytes
//! per step, at several times the speed of the bytewise table walk and
//! bit-for-bit equal to it.
//! A frame whose CRC does not match is *rejected* — skipped whole, counted
//! on [`FrameCodec::crc_rejections`] — instead of being decoded into
//! garbage; a corrupt frame thus degrades into a lost frame, which the
//! server's stall watchdog and requeue machinery already recover from.
//! Strings are `u16 BE length + UTF-8`; byte blobs are `u32 BE length +
//! bytes`; `f64` travels as IEEE-754 bits.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cwc_types::{CwcError, CwcResult, JobId, PhoneId, RadioTech};
use std::io::Read;

/// Application-layer keep-alive period (30 s in the prototype).
pub const KEEPALIVE_PERIOD: cwc_types::Micros = cwc_types::Micros(30_000_000);

/// Number of unanswered keep-alives tolerated before a phone is marked as
/// an offline failure (3 in the prototype).
pub const KEEPALIVE_TOLERATED_MISSES: u32 = 3;

/// Maximum accepted frame body (tag + payload) — guards the decoder against
/// a corrupt or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes of framing before the body: u32 length + u32 CRC32.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a body's fixed-size fields; `ShipInput`'s 63 bytes are
/// the most. [`Frame::encode`] sizes its output from this plus the body's
/// strings and blobs.
const MAX_FIXED_BODY: usize = 64;

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`.
///
/// Guards every frame body against in-flight corruption; a single flipped
/// bit anywhere in tag or payload is always detected.
///
/// Slicing-by-16: table `k` of sixteen gives the CRC contribution of
/// a byte `k` positions before the end of a 16-byte block, so each block
/// costs sixteen independent lookups instead of sixteen dependent ones. A
/// tail shorter than a block takes the bytewise walk over table 0.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut c = !0u32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        c = lut::<15>(b0 ^ c as u8)
            ^ lut::<14>(b1 ^ (c >> 8) as u8)
            ^ lut::<13>(b2 ^ (c >> 16) as u8)
            ^ lut::<12>(b3 ^ (c >> 24) as u8)
            ^ lut::<11>(b4)
            ^ lut::<10>(b5)
            ^ lut::<9>(b6)
            ^ lut::<8>(b7)
            ^ lut::<7>(b8)
            ^ lut::<6>(b9)
            ^ lut::<5>(b10)
            ^ lut::<4>(b11)
            ^ lut::<3>(b12)
            ^ lut::<2>(b13)
            ^ lut::<1>(b14)
            ^ lut::<0>(b15);
    }
    for &b in tail {
        c = lut::<0>(b ^ c as u8) ^ (c >> 8);
    }
    !c
}

/// Entry `byte` of CRC table `K`.
#[inline(always)]
fn lut<const K: usize>(byte: u8) -> u32 {
    const { assert!(K < 16) };
    // Infallible: K < 16 is checked when the call compiles (above), and a
    // u8 index is always below 256. cwc-lint: allow(panic_safety)
    CRC_TABLES[K][usize::from(byte)]
}

/// The slicing-by-16 tables: table 0 is the classic bytewise table, and
/// table `k` advances table `k - 1`'s entry past one more zero byte.
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Const-evaluated, so an out-of-range index fails the build, never a run.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c; // cwc-lint: allow(panic_safety)
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i]; // cwc-lint: allow(panic_safety)
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize]; // cwc-lint: allow(panic_safety)
            i += 1;
        }
        k += 1;
    }
    t
}

/// Whether `tag` (the first body byte of an encoded frame) belongs to the
/// connection-setup/teardown vocabulary. Fault-injection harnesses use this
/// to spare the handshake: chaos on the data phase exercises recovery, chaos
/// on registration only prevents the run from starting.
pub fn is_handshake_tag(t: u8) -> bool {
    matches!(
        t,
        tag::REGISTER | tag::REGISTER_ACK | tag::BW_PROBE | tag::BW_REPORT | tag::SHUTDOWN
    )
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Phone → server: join the fleet, reporting hardware capabilities.
    Register {
        /// Phone identity (assigned out of band, e.g. enrollment).
        phone: PhoneId,
        /// CPU clock in MHz.
        clock_mhz: u32,
        /// CPU core count.
        cores: u32,
        /// Radio technology in use.
        radio: RadioTech,
        /// Usable RAM in KB.
        ram_kb: u64,
    },
    /// Server → phone: registration accepted.
    RegisterAck {
        /// Server wall-clock at acceptance (µs) — lets phones stamp reports.
        server_time_us: u64,
    },
    /// Server → phone: bandwidth probe payload (iperf-style).
    BandwidthProbe {
        /// Correlates probe and report.
        probe_id: u32,
        /// Probe payload size in KB.
        payload_kb: u32,
    },
    /// Phone → server: measured downlink throughput for a probe.
    BandwidthReport {
        /// Correlates probe and report.
        probe_id: u32,
        /// Measured throughput in KB/s.
        kb_per_sec: f64,
    },
    /// Server → phone: ship a task executable (the `.jar` analogue).
    ShipExecutable {
        /// Job whose program this is.
        job: JobId,
        /// Program name for the device-side registry (reflection analogue).
        program: String,
        /// Executable size in KB (`E_j`).
        exe_kb: u64,
    },
    /// Server → phone: ship an input partition and start execution.
    ShipInput {
        /// Job being executed.
        job: JobId,
        /// Server-assigned task sequence number; the phone echoes it in the
        /// matching [`Frame::TaskComplete`]/[`Frame::TaskFailed`] so the
        /// server can discard duplicated or stale reports (idempotency
        /// under frame duplication and retries).
        seq: u64,
        /// Offset of this partition within the job input, in KB.
        offset_kb: u64,
        /// Partition length in KB (`l_ij`).
        len_kb: u64,
        /// Migration state to resume from, if this partition continues a
        /// previously failed execution.
        resume_from: Option<Bytes>,
        /// Trace id of the chunk's span tree (the originating job).
        trace_id: u64,
        /// Span id minted by the coordinator for this placement.
        span_id: u64,
        /// Parent span id, or 0 for a root placement (initial schedule).
        parent_span: u64,
        /// Whether this partition is a redundant copy (risk-driven replica
        /// or speculative re-execution) of work in flight elsewhere. Purely
        /// informational to the worker — execution is identical — but it
        /// lets device-side accounting distinguish primary from backup
        /// work.
        replica: bool,
        /// The partition payload. Empty in simulated deployments (where
        /// only sizes matter); carries the real input bytes in live mode.
        data: Bytes,
    },
    /// Phone → server: a partition finished.
    TaskComplete {
        /// Job that finished.
        job: JobId,
        /// Echo of the [`Frame::ShipInput`] sequence number this report
        /// answers; reports that do not match the in-flight sequence are
        /// duplicates and are dropped by the server.
        seq: u64,
        /// Locally measured execution time in ms (feeds prediction update).
        exec_ms: u64,
        /// Serialized partial result for server-side aggregation.
        result: Bytes,
    },
    /// Phone → server: an *online failure* — the phone was unplugged but
    /// still has connectivity, so it reports how far it got plus the
    /// JavaGO-style continuation state.
    TaskFailed {
        /// Job that was interrupted.
        job: JobId,
        /// Echo of the [`Frame::ShipInput`] sequence number (see
        /// [`Frame::TaskComplete::seq`]).
        seq: u64,
        /// Input KB already processed before the failure instant.
        processed_kb: u64,
        /// Serialized continuation (checkpoint) for migration.
        checkpoint: Bytes,
    },
    /// Server → phone: liveness probe.
    KeepAlive {
        /// Monotonic sequence number.
        seq: u64,
    },
    /// Phone → server: liveness answer.
    KeepAliveAck {
        /// Echoed sequence number.
        seq: u64,
    },
    /// Phone → server: plugged into a charger (eligible for work).
    Plugged,
    /// Phone → server: unplugged (will stop computing; tasks migrate).
    Unplugged,
    /// Server → phone: abandon an in-flight (or still-buffered) partition —
    /// its first-result-wins twin already completed elsewhere. Workers
    /// that predate this frame skip-and-warn it; their late report is
    /// absorbed by the server's stale-sequence dedup.
    CancelTask {
        /// Job whose partition is withdrawn.
        job: JobId,
        /// Ship sequence number of the withdrawn partition.
        seq: u64,
    },
    /// Either direction: orderly connection shutdown.
    Shutdown,
}

mod tag {
    pub const REGISTER: u8 = 1;
    pub const REGISTER_ACK: u8 = 2;
    pub const BW_PROBE: u8 = 3;
    pub const BW_REPORT: u8 = 4;
    pub const SHIP_EXE: u8 = 5;
    pub const SHIP_INPUT: u8 = 6;
    pub const TASK_COMPLETE: u8 = 7;
    pub const TASK_FAILED: u8 = 8;
    pub const KEEPALIVE: u8 = 9;
    pub const KEEPALIVE_ACK: u8 = 10;
    pub const PLUGGED: u8 = 11;
    pub const UNPLUGGED: u8 = 12;
    pub const SHUTDOWN: u8 = 13;
    pub const CANCEL_TASK: u8 = 14;
}

fn radio_to_u8(r: RadioTech) -> u8 {
    match r {
        RadioTech::Wifi80211a => 0,
        RadioTech::Wifi80211g => 1,
        RadioTech::Edge => 2,
        RadioTech::ThreeG => 3,
        RadioTech::FourG => 4,
    }
}

fn radio_from_u8(v: u8) -> CwcResult<RadioTech> {
    Ok(match v {
        0 => RadioTech::Wifi80211a,
        1 => RadioTech::Wifi80211g,
        2 => RadioTech::Edge,
        3 => RadioTech::ThreeG,
        4 => RadioTech::FourG,
        other => return Err(CwcError::Protocol(format!("bad radio tag {other}"))),
    })
}

fn put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string too long for wire");
    buf.put_u16(bytes.len() as u16);
    buf.put_slice(bytes);
}

fn put_blob(buf: &mut BytesMut, b: &[u8]) {
    assert!(b.len() <= u32::MAX as usize);
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

/// Bounds-checked primitive readers over the body buffer.
struct Reader<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The one primitive every reader goes through: consume exactly `n`
    /// bytes or fail. Built on `slice::get`, so a truncated or hostile
    /// frame yields a protocol error, never a panic.
    fn take(&mut self, n: usize) -> CwcResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CwcError::Protocol(format!("length overflow at offset {}", self.pos)))?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(CwcError::Protocol(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Fixed-size read. `copy_from_slice` is infallible here: `take`
    /// returned exactly `N` bytes.
    fn array<const N: usize>(&mut self) -> CwcResult<[u8; N]> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    fn u8(&mut self) -> CwcResult<u8> {
        self.array::<1>().map(|[b]| b)
    }

    fn u16(&mut self) -> CwcResult<u16> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> CwcResult<u32> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> CwcResult<u64> {
        self.array().map(u64::from_be_bytes)
    }

    fn f64(&mut self) -> CwcResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> CwcResult<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|e| CwcError::Protocol(format!("invalid UTF-8 in frame: {e}")))?
            .to_owned())
    }

    /// A length-prefixed blob, as a window onto the frame's own buffer.
    fn blob(&mut self) -> CwcResult<Bytes> {
        let len = self.u32()? as usize;
        let start = self.pos;
        self.take(len)?;
        Ok(self.buf.slice(start..self.pos))
    }

    fn finish(self) -> CwcResult<()> {
        if self.pos != self.buf.len() {
            Err(CwcError::Protocol(format!(
                "{} trailing bytes after frame payload",
                self.buf.len() - self.pos
            )))
        } else {
            Ok(())
        }
    }
}

impl Frame {
    /// Encodes the frame (with its length prefix) into `out`.
    ///
    /// Single pass: `out` is sized once from the payload length, the body is
    /// written in place behind a reserved header, and the header's length
    /// and CRC32 are filled in last.
    pub fn encode(&self, out: &mut BytesMut) {
        let at = out.len();
        out.reserve(FRAME_HEADER_LEN + MAX_FIXED_BODY + self.blob_len());
        out.put_slice(&[0; FRAME_HEADER_LEN]);
        match self {
            Frame::Register {
                phone,
                clock_mhz,
                cores,
                radio,
                ram_kb,
            } => {
                out.put_u8(tag::REGISTER);
                out.put_u32(phone.0);
                out.put_u32(*clock_mhz);
                out.put_u32(*cores);
                out.put_u8(radio_to_u8(*radio));
                out.put_u64(*ram_kb);
            }
            Frame::RegisterAck { server_time_us } => {
                out.put_u8(tag::REGISTER_ACK);
                out.put_u64(*server_time_us);
            }
            Frame::BandwidthProbe {
                probe_id,
                payload_kb,
            } => {
                out.put_u8(tag::BW_PROBE);
                out.put_u32(*probe_id);
                out.put_u32(*payload_kb);
            }
            Frame::BandwidthReport {
                probe_id,
                kb_per_sec,
            } => {
                out.put_u8(tag::BW_REPORT);
                out.put_u32(*probe_id);
                out.put_u64(kb_per_sec.to_bits());
            }
            Frame::ShipExecutable {
                job,
                program,
                exe_kb,
            } => {
                out.put_u8(tag::SHIP_EXE);
                out.put_u32(job.0);
                put_string(out, program);
                out.put_u64(*exe_kb);
            }
            Frame::ShipInput {
                job,
                seq,
                offset_kb,
                len_kb,
                resume_from,
                trace_id,
                span_id,
                parent_span,
                replica,
                data,
            } => {
                out.put_u8(tag::SHIP_INPUT);
                out.put_u32(job.0);
                out.put_u64(*seq);
                out.put_u64(*offset_kb);
                out.put_u64(*len_kb);
                match resume_from {
                    Some(state) => {
                        out.put_u8(1);
                        put_blob(out, state);
                    }
                    None => out.put_u8(0),
                }
                out.put_u64(*trace_id);
                out.put_u64(*span_id);
                out.put_u64(*parent_span);
                out.put_u8(u8::from(*replica));
                put_blob(out, data);
            }
            Frame::TaskComplete {
                job,
                seq,
                exec_ms,
                result,
            } => {
                out.put_u8(tag::TASK_COMPLETE);
                out.put_u32(job.0);
                out.put_u64(*seq);
                out.put_u64(*exec_ms);
                put_blob(out, result);
            }
            Frame::TaskFailed {
                job,
                seq,
                processed_kb,
                checkpoint,
            } => {
                out.put_u8(tag::TASK_FAILED);
                out.put_u32(job.0);
                out.put_u64(*seq);
                out.put_u64(*processed_kb);
                put_blob(out, checkpoint);
            }
            Frame::KeepAlive { seq } => {
                out.put_u8(tag::KEEPALIVE);
                out.put_u64(*seq);
            }
            Frame::KeepAliveAck { seq } => {
                out.put_u8(tag::KEEPALIVE_ACK);
                out.put_u64(*seq);
            }
            Frame::Plugged => out.put_u8(tag::PLUGGED),
            Frame::Unplugged => out.put_u8(tag::UNPLUGGED),
            Frame::CancelTask { job, seq } => {
                out.put_u8(tag::CANCEL_TASK);
                out.put_u32(job.0);
                out.put_u64(*seq);
            }
            Frame::Shutdown => out.put_u8(tag::SHUTDOWN),
        }
        let body_at = at + FRAME_HEADER_LEN;
        let len = (out.len() - body_at) as u32;
        let crc = crc32(out.get(body_at..).unwrap_or_default());
        put_be_u32_at(out, at, len);
        put_be_u32_at(out, at + 4, crc);
    }

    /// Bytes of strings and blobs in the body: everything beyond its
    /// fixed-size fields.
    fn blob_len(&self) -> usize {
        match self {
            Frame::ShipExecutable { program, .. } => program.len(),
            Frame::ShipInput {
                resume_from, data, ..
            } => resume_from.as_ref().map_or(0, Bytes::len) + data.len(),
            Frame::TaskComplete { result, .. } => result.len(),
            Frame::TaskFailed { checkpoint, .. } => checkpoint.len(),
            _ => 0,
        }
    }

    /// Decodes one frame body (without the length prefix). Blobs come out
    /// as windows onto `body`, sharing its allocation.
    fn decode_body(body: &Bytes) -> CwcResult<Frame> {
        let mut r = Reader::new(body);
        let t = r.u8()?;
        let frame = match t {
            tag::REGISTER => Frame::Register {
                phone: PhoneId(r.u32()?),
                clock_mhz: r.u32()?,
                cores: r.u32()?,
                radio: radio_from_u8(r.u8()?)?,
                ram_kb: r.u64()?,
            },
            tag::REGISTER_ACK => Frame::RegisterAck {
                server_time_us: r.u64()?,
            },
            tag::BW_PROBE => Frame::BandwidthProbe {
                probe_id: r.u32()?,
                payload_kb: r.u32()?,
            },
            tag::BW_REPORT => Frame::BandwidthReport {
                probe_id: r.u32()?,
                kb_per_sec: r.f64()?,
            },
            tag::SHIP_EXE => Frame::ShipExecutable {
                job: JobId(r.u32()?),
                program: r.string()?,
                exe_kb: r.u64()?,
            },
            tag::SHIP_INPUT => {
                let job = JobId(r.u32()?);
                let seq = r.u64()?;
                let offset_kb = r.u64()?;
                let len_kb = r.u64()?;
                let resume_from = match r.u8()? {
                    0 => None,
                    1 => Some(r.blob()?),
                    other => {
                        return Err(CwcError::Protocol(format!(
                            "bad option discriminant {other}"
                        )))
                    }
                };
                let trace_id = r.u64()?;
                let span_id = r.u64()?;
                let parent_span = r.u64()?;
                let replica = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(CwcError::Protocol(format!(
                            "bad replica discriminant {other}"
                        )))
                    }
                };
                let data = r.blob()?;
                Frame::ShipInput {
                    job,
                    seq,
                    offset_kb,
                    len_kb,
                    resume_from,
                    trace_id,
                    span_id,
                    parent_span,
                    replica,
                    data,
                }
            }
            tag::TASK_COMPLETE => Frame::TaskComplete {
                job: JobId(r.u32()?),
                seq: r.u64()?,
                exec_ms: r.u64()?,
                result: r.blob()?,
            },
            tag::TASK_FAILED => Frame::TaskFailed {
                job: JobId(r.u32()?),
                seq: r.u64()?,
                processed_kb: r.u64()?,
                checkpoint: r.blob()?,
            },
            tag::KEEPALIVE => Frame::KeepAlive { seq: r.u64()? },
            tag::KEEPALIVE_ACK => Frame::KeepAliveAck { seq: r.u64()? },
            tag::PLUGGED => Frame::Plugged,
            tag::UNPLUGGED => Frame::Unplugged,
            tag::CANCEL_TASK => Frame::CancelTask {
                job: JobId(r.u32()?),
                seq: r.u64()?,
            },
            tag::SHUTDOWN => Frame::Shutdown,
            other => return Err(CwcError::Protocol(format!("unknown frame tag {other}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Incremental decoder over a growing byte buffer.
///
/// Feed raw bytes with [`FrameCodec::extend`] ([`crate::reactor::Conn`]
/// reads its socket straight into the codec instead); pull complete frames
/// with [`FrameCodec::next_frame`] until it returns `Ok(None)` (incomplete
/// tail remains buffered).
///
/// Decoding copies no payload: once a frame's header is in, the buffer is
/// sized for the whole frame, the frame leaves the buffer with its
/// allocation, and the decoded blobs are windows onto it.
///
/// Frames whose CRC32 does not match their body are *skipped whole* rather
/// than surfaced as errors: the length prefix keeps the stream framed, the
/// rejection lands on [`FrameCodec::crc_rejections`], and the sender's
/// message simply never arrives — the same failure mode as a dropped
/// frame, which the coordination layer above already recovers from. Only
/// structural damage (a corrupt length prefix, a post-CRC malformed body)
/// is an error, because framing itself is then lost.
#[derive(Debug, Default)]
pub struct FrameCodec {
    buf: BytesMut,
    crc_rejected: u64,
}

/// How much [`FrameCodec::read_from`] asks for between frames, before the
/// next header has arrived.
const READ_CHUNK: usize = 8 * 1024;

impl FrameCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Reads from the non-blocking `src` straight into the receive buffer:
    /// the rest of the frame being received, its whole length reserved
    /// once, or between frames up to 8 KiB. Reading stops when that much
    /// has arrived, `src` would block, or `src` ends (interrupted reads are
    /// retried); returns `Ok(true)` at end of stream. Bytes read before an
    /// error (`WouldBlock` included) stay buffered.
    pub(crate) fn read_from(&mut self, src: impl Read) -> std::io::Result<bool> {
        let want = match self.missing() {
            Some(n) if n > 0 => n,
            _ => READ_CHUNK,
        };
        Ok(self.buf.read_from(src, want)? < want)
    }

    /// Whether [`FrameCodec::next_frame`] has a whole frame to work on (or
    /// an invalid length prefix to report).
    pub(crate) fn frame_ready(&self) -> bool {
        self.missing() == Some(0)
    }

    /// Bytes the frame at the front of the buffer still lacks: `None` while
    /// its header is incomplete, `Some(0)` once it is whole or its length
    /// prefix is invalid.
    fn missing(&self) -> Option<usize> {
        let len = be_u32_at(&self.buf, 0)? as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Some(0);
        }
        Some((FRAME_HEADER_LEN + len).saturating_sub(self.buf.len()))
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// How many complete frames were rejected (and skipped) because their
    /// CRC32 did not match the received body.
    pub fn crc_rejections(&self) -> u64 {
        self.crc_rejected
    }

    /// Attempts to decode the next complete, integrity-checked frame.
    pub fn next_frame(&mut self) -> CwcResult<Option<Frame>> {
        loop {
            if self.buf.len() < FRAME_HEADER_LEN {
                return Ok(None);
            }
            let (Some(len), Some(want_crc)) = (be_u32_at(&self.buf, 0), be_u32_at(&self.buf, 4))
            else {
                // Unreachable given the header-length check above, but a
                // missing header must never be able to panic the codec.
                return Ok(None);
            };
            let len = len as usize;
            if len == 0 || len > MAX_FRAME_LEN {
                return Err(CwcError::Protocol(format!("bad frame length {len}")));
            }
            if self.buf.len() < FRAME_HEADER_LEN + len {
                return Ok(None);
            }
            self.buf.advance(FRAME_HEADER_LEN);
            let body = self.buf.split_to(len).freeze();
            if crc32(&body) != want_crc {
                self.crc_rejected += 1;
                continue; // reject the corrupt frame; framing survives
            }
            return Frame::decode_body(&body).map(Some);
        }
    }
}

/// Overwrites the big-endian u32 at byte offset `at`; `encode` reserved
/// those bytes, so the range is always in bounds.
fn put_be_u32_at(buf: &mut [u8], at: usize, v: u32) {
    if let Some(dst) = buf.get_mut(at..at + 4) {
        dst.copy_from_slice(&v.to_be_bytes());
    }
}

/// Big-endian u32 at byte offset `at`, or `None` past the end.
/// `copy_from_slice` is infallible here: `get` returned exactly 4 bytes.
fn be_u32_at(buf: &[u8], at: usize) -> Option<u32> {
    let slice = buf.get(at..at.checked_add(4)?)?;
    let mut b = [0u8; 4];
    b.copy_from_slice(slice);
    Some(u32::from_be_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wraps a hand-built body in correct framing (length + CRC), so tests
    /// can target *decode* failures rather than tripping the CRC gate.
    fn raw_frame(body: &[u8]) -> Vec<u8> {
        let mut raw = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
        raw.extend_from_slice(&(body.len() as u32).to_be_bytes());
        raw.extend_from_slice(&crc32(body).to_be_bytes());
        raw.extend_from_slice(body);
        raw
    }

    fn round_trip(f: &Frame) -> Frame {
        let mut buf = BytesMut::new();
        f.encode(&mut buf);
        let mut codec = FrameCodec::new();
        codec.extend(&buf);
        let out = codec.next_frame().expect("decode ok").expect("complete");
        assert_eq!(codec.buffered(), 0, "no leftovers");
        out
    }

    #[test]
    fn round_trips_all_variants() {
        let frames = vec![
            Frame::Register {
                phone: PhoneId(3),
                clock_mhz: 1200,
                cores: 2,
                radio: RadioTech::ThreeG,
                ram_kb: 1_048_576,
            },
            Frame::RegisterAck { server_time_us: 42 },
            Frame::BandwidthProbe {
                probe_id: 7,
                payload_kb: 256,
            },
            Frame::BandwidthReport {
                probe_id: 7,
                kb_per_sec: 812.75,
            },
            Frame::ShipExecutable {
                job: JobId(9),
                program: "wordcount".into(),
                exe_kb: 30,
            },
            Frame::ShipInput {
                job: JobId(9),
                seq: 11,
                offset_kb: 100,
                len_kb: 500,
                resume_from: None,
                trace_id: 9,
                span_id: 4,
                parent_span: 0,
                replica: false,
                data: Bytes::new(),
            },
            Frame::ShipInput {
                job: JobId(9),
                seq: 12,
                offset_kb: 0,
                len_kb: 250,
                resume_from: Some(Bytes::from_static(b"state")),
                trace_id: 9,
                span_id: 7,
                parent_span: 4,
                replica: true,
                data: Bytes::from_static(b"payload bytes"),
            },
            Frame::TaskComplete {
                job: JobId(9),
                seq: 11,
                exec_ms: 1234,
                result: Bytes::from_static(b"42"),
            },
            Frame::TaskFailed {
                job: JobId(9),
                seq: 12,
                processed_kb: 77,
                checkpoint: Bytes::from_static(b"ckpt"),
            },
            Frame::KeepAlive { seq: 1 },
            Frame::KeepAliveAck { seq: 1 },
            Frame::Plugged,
            Frame::Unplugged,
            Frame::CancelTask {
                job: JobId(9),
                seq: 12,
            },
            Frame::Shutdown,
        ];
        for f in &frames {
            assert_eq!(&round_trip(f), f);
        }
    }

    #[test]
    fn streaming_decode_across_fragment_boundaries() {
        let mut wire = BytesMut::new();
        let a = Frame::KeepAlive { seq: 5 };
        let b = Frame::TaskComplete {
            job: JobId(1),
            seq: 3,
            exec_ms: 10,
            result: Bytes::from_static(b"abcdef"),
        };
        a.encode(&mut wire);
        b.encode(&mut wire);

        // Feed a byte at a time; frames must pop exactly when complete.
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for byte in wire.iter() {
            codec.extend(std::slice::from_ref(byte));
            while let Some(f) = codec.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, vec![a, b]);
    }

    #[test]
    fn two_frames_in_one_read() {
        let mut wire = BytesMut::new();
        Frame::Plugged.encode(&mut wire);
        Frame::Unplugged.encode(&mut wire);
        let mut codec = FrameCodec::new();
        codec.extend(&wire);
        assert_eq!(codec.next_frame().unwrap(), Some(Frame::Plugged));
        assert_eq!(codec.next_frame().unwrap(), Some(Frame::Unplugged));
        assert_eq!(codec.next_frame().unwrap(), None);
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&[200]));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_zero_and_huge_lengths() {
        let mut codec = FrameCodec::new();
        codec.extend(&[0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(codec.next_frame().is_err());

        let mut codec = FrameCodec::new();
        codec.extend(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_trailing_garbage_inside_frame() {
        // A KeepAlive body with an extra junk byte, reframed with a correct
        // CRC so the failure is the decoder's, not the integrity gate's.
        let mut wire = BytesMut::new();
        Frame::KeepAlive { seq: 1 }.encode(&mut wire);
        let mut body = wire[FRAME_HEADER_LEN..].to_vec();
        body.push(0xAB);
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&body));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_truncated_string() {
        // ShipExecutable with a string length pointing past the body.
        let mut body = BytesMut::new();
        body.put_u8(5); // SHIP_EXE
        body.put_u32(1);
        body.put_u16(100); // claims 100 bytes
        body.put_slice(b"abc"); // provides 3
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&body));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn rejects_bad_radio_and_bad_option() {
        let mut body = BytesMut::new();
        body.put_u8(1); // REGISTER
        body.put_u32(0);
        body.put_u32(1000);
        body.put_u32(2);
        body.put_u8(99); // bad radio
        body.put_u64(0);
        let mut codec = FrameCodec::new();
        codec.extend(&raw_frame(&body));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn corrupt_frame_is_skipped_and_framing_survives() {
        // Three frames; flip one payload bit in the middle one. The codec
        // must reject exactly that frame and still decode its neighbors.
        let mut wire = BytesMut::new();
        Frame::KeepAlive { seq: 1 }.encode(&mut wire);
        let corrupt_at = wire.len() + FRAME_HEADER_LEN + 2; // inside frame 2's body
        Frame::KeepAlive { seq: 2 }.encode(&mut wire);
        Frame::KeepAlive { seq: 3 }.encode(&mut wire);
        let mut raw = wire.to_vec();
        raw[corrupt_at] ^= 0x10;

        let mut codec = FrameCodec::new();
        codec.extend(&raw);
        assert_eq!(
            codec.next_frame().unwrap(),
            Some(Frame::KeepAlive { seq: 1 })
        );
        // The corrupt frame 2 is skipped transparently; frame 3 comes next.
        assert_eq!(
            codec.next_frame().unwrap(),
            Some(Frame::KeepAlive { seq: 3 })
        );
        assert_eq!(codec.next_frame().unwrap(), None);
        assert_eq!(codec.crc_rejections(), 1);
    }

    #[test]
    fn crc_catches_single_bit_flips_anywhere_in_body() {
        let mut wire = BytesMut::new();
        Frame::TaskComplete {
            job: JobId(4),
            seq: 9,
            exec_ms: 123,
            result: Bytes::from_static(b"result bytes"),
        }
        .encode(&mut wire);
        let clean = wire.to_vec();
        for byte in FRAME_HEADER_LEN..clean.len() {
            for bit in 0..8 {
                let mut raw = clean.clone();
                raw[byte] ^= 1 << bit;
                let mut codec = FrameCodec::new();
                codec.extend(&raw);
                assert_eq!(
                    codec.next_frame().unwrap(),
                    None,
                    "flip at byte {byte} bit {bit} must be rejected"
                );
                assert_eq!(codec.crc_rejections(), 1);
            }
        }
    }

    fn ship_pair(payload: usize) -> Vec<Frame> {
        vec![
            Frame::ShipExecutable {
                job: JobId(4),
                program: "wordcount".into(),
                exe_kb: 30,
            },
            Frame::ShipInput {
                job: JobId(4),
                seq: 8,
                offset_kb: 64,
                len_kb: (payload / 1024) as u64,
                resume_from: None,
                trace_id: 4,
                span_id: 8,
                parent_span: 0,
                replica: false,
                data: Bytes::from((0..payload).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
            },
        ]
    }

    fn wire_of(frames: &[Frame]) -> Vec<u8> {
        let mut wire = BytesMut::new();
        for f in frames {
            f.encode(&mut wire);
        }
        wire.into()
    }

    /// A non-blocking source: each read hands out at most `per_read`
    /// bytes, then reports `WouldBlock` until the next packet "arrives".
    struct Packets {
        data: Vec<u8>,
        pos: usize,
        per_read: usize,
        arrived: bool,
    }

    impl std::io::Read for Packets {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.arrived, false) {
                self.arrived = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.per_read).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Decodes `wire` the way `Conn::fill` reads a socket: straight into
    /// the codec, stopping at each whole frame.
    fn decode_by_reads(wire: Vec<u8>, per_read: usize) -> Vec<Frame> {
        let mut src = Packets {
            data: wire,
            pos: 0,
            per_read,
            arrived: true,
        };
        let mut codec = FrameCodec::new();
        let mut out = Vec::new();
        loop {
            match codec.read_from(&mut src) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
            while let Some(f) = codec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(codec.buffered(), 0);
        out
    }

    #[test]
    fn one_read_and_mtu_sized_reads_decode_identically() {
        let frames = ship_pair(200 * 1024);
        let wire = wire_of(&frames);
        let whole = decode_by_reads(wire.clone(), usize::MAX);
        let mtu = decode_by_reads(wire, 1400);
        assert_eq!(whole, frames);
        assert_eq!(mtu, frames);
    }

    #[test]
    fn decoded_payload_points_into_the_receive_buffer() {
        let frames = ship_pair(64 * 1024);
        let mut src: &[u8] = &wire_of(&frames[1..]);
        let mut codec = FrameCodec::new();
        while !codec.frame_ready() {
            assert!(!codec.read_from(&mut src).unwrap(), "stream ended early");
        }
        let received = codec.buf.as_ptr_range();
        let Some(Frame::ShipInput { data, .. }) = codec.next_frame().unwrap() else {
            panic!("expected the ShipInput");
        };
        let payload = data.as_ptr_range();
        assert!(
            received.start <= payload.start && payload.end <= received.end,
            "payload was copied out of the receive buffer"
        );

        // The codec reading on must leave the decoded frame intact.
        let mut more: &[u8] = &wire_of(&frames);
        while codec.read_from(&mut more).is_ok_and(|eof| !eof) {}
        assert_eq!(codec.next_frame().unwrap().as_ref(), frames.first());
        let Some(Frame::ShipInput { data: expected, .. }) = frames.get(1) else {
            panic!("ship_pair holds a ShipInput");
        };
        assert_eq!(&data, expected);
        assert_eq!(codec.next_frame().unwrap().as_ref(), frames.get(1));
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn handshake_tags_are_classified() {
        assert!(is_handshake_tag(tag::REGISTER));
        assert!(is_handshake_tag(tag::BW_REPORT));
        assert!(is_handshake_tag(tag::SHUTDOWN));
        assert!(!is_handshake_tag(tag::SHIP_INPUT));
        assert!(!is_handshake_tag(tag::TASK_COMPLETE));
        assert!(!is_handshake_tag(tag::KEEPALIVE));
    }

    #[test]
    fn keepalive_constants_match_prototype() {
        assert_eq!(KEEPALIVE_PERIOD.as_secs_f64(), 30.0);
        assert_eq!(KEEPALIVE_TOLERATED_MISSES, 3);
    }
}
