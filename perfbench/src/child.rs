//! The fleet child: one process that plays the phones of every live
//! night, at most one connection and one thread per CPU.
//!
//! The parent drives it over stdin, one line per night
//! (`night <index> <addr> <phones> <traced 0|1>`), and reads back one JSON line per
//! night on stdout. Each phone is a non-blocking [`Conn`] on its own
//! [`Poller`]: it registers, answers the bandwidth probe, verifies every
//! `ShipInput` against the seeded input, runs the real `cwc-tasks`
//! program over it and reports the true partial result.

use crate::inputs::{job_key, records_match};
use crate::trace::{write_spans, Span, SpanLog};
use cwc_device::TaskRegistry;
use cwc_net::{Conn, FlushStatus, Frame, FrameCodec, Interest, PollEvent, Poller, ReadStatus};
use cwc_types::{CwcError, CwcResult, JobId, PhoneId, RadioTech};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A phone that hears nothing for this long gives up on its night.
const SILENCE_LIMIT: Duration = Duration::from_secs(60);

/// Stable metric name of a frame kind.
pub fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Register { .. } => "register",
        Frame::RegisterAck { .. } => "register_ack",
        Frame::BandwidthProbe { .. } => "bandwidth_probe",
        Frame::BandwidthReport { .. } => "bandwidth_report",
        Frame::ShipExecutable { .. } => "ship_executable",
        Frame::ShipInput { .. } => "ship_input",
        Frame::TaskComplete { .. } => "task_complete",
        Frame::TaskFailed { .. } => "task_failed",
        Frame::KeepAlive { .. } => "keep_alive",
        Frame::KeepAliveAck { .. } => "keep_alive_ack",
        Frame::Plugged => "plugged",
        Frame::Unplugged => "unplugged",
        Frame::CancelTask { .. } => "cancel_task",
        Frame::Shutdown => "shutdown",
    }
}

/// Span identifier of one chunk: the night plus the ship `seq`.
pub fn chunk_id(night: u64, seq: u64) -> u64 {
    ((night + 1) << 40) | seq
}

/// Summed time (ns) and call count per frame kind.
type FrameTimes = BTreeMap<&'static str, (f64, u64)>;

fn add(times: &mut FrameTimes, name: &'static str, ns: f64) {
    let e = times.entry(name).or_insert((0.0, 0));
    e.0 += ns;
    e.1 += 1;
}

fn merge(into: &mut FrameTimes, from: &FrameTimes) {
    for (k, (ns, n)) in from {
        let e = into.entry(k).or_insert((0.0, 0));
        e.0 += ns;
        e.1 += n;
    }
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// What one phone (or, merged, one night) saw.
#[derive(Debug, Default)]
struct PhoneLog {
    turnaround_us: Vec<f64>,
    first_chunk_us: Vec<f64>,
    chunks: u64,
    payload_bytes: u64,
    bad_inputs: u64,
    lost: u64,
    exec_ns: f64,
    wait_ns: f64,
    fill_ns: f64,
    flush_ns: f64,
    encode: FrameTimes,
    decode: FrameTimes,
    wire_bytes: u64,
}

impl PhoneLog {
    fn merge(&mut self, o: PhoneLog) {
        self.turnaround_us.extend(o.turnaround_us);
        self.first_chunk_us.extend(o.first_chunk_us);
        self.chunks += o.chunks;
        self.payload_bytes += o.payload_bytes;
        self.bad_inputs += o.bad_inputs;
        self.lost += o.lost;
        self.exec_ns += o.exec_ns;
        self.wait_ns += o.wait_ns;
        self.fill_ns += o.fill_ns;
        self.flush_ns += o.flush_ns;
        merge(&mut self.encode, &o.encode);
        merge(&mut self.decode, &o.decode);
        self.wire_bytes += o.wire_bytes;
    }

    fn to_json(&self, night: u64) -> serde_json::Value {
        let times = |t: &FrameTimes| -> serde_json::Value {
            let map: BTreeMap<String, serde_json::Value> = t
                .iter()
                .map(|(k, (ns, n))| ((*k).to_owned(), serde_json::json!([*ns, *n])))
                .collect();
            serde_json::to_value(&map)
        };
        serde_json::json!({
            "night": night,
            "turnaround_us": self.turnaround_us,
            "first_chunk_us": self.first_chunk_us,
            "chunks": self.chunks,
            "payload_bytes": self.payload_bytes,
            "bad_inputs": self.bad_inputs,
            "lost": self.lost,
            "exec_ns": self.exec_ns,
            "wait_ns": self.wait_ns,
            "fill_ns": self.fill_ns,
            "flush_ns": self.flush_ns,
            "encode": times(&self.encode),
            "decode": times(&self.decode),
            "wire_bytes": self.wire_bytes,
        })
    }
}

/// What every phone of one night shares.
#[derive(Debug, Clone, Copy)]
struct NightCfg {
    night: u64,
    seed: u64,
    traced: bool,
    /// Poll without sleeping: set when the child has CPUs of its own, so
    /// a phone's wake-up latency is not counted as the coordinator's.
    spin: bool,
}

/// One phone's connection and protocol state.
struct Phone<'a> {
    index: usize,
    cfg: NightCfg,
    registry: &'a TaskRegistry,
    conn: Conn,
    poller: Poller,
    write_interest: bool,
    programs: BTreeMap<JobId, String>,
    report_sent: Option<Instant>,
    complete_sent: Option<Instant>,
    chunk: u64,
    shutdown: bool,
    log: PhoneLog,
    spans: SpanLog,
}

impl Phone<'_> {
    /// Encodes, queues and flushes one frame.
    fn send(&mut self, frame: &Frame) -> CwcResult<()> {
        let t = Instant::now();
        let mut buf = bytes::BytesMut::new();
        frame.encode(&mut buf);
        if self.cfg.traced {
            let name = frame_name(frame);
            add(&mut self.log.encode, name, ns_since(t));
            self.spans.push(Span::new("encode", self.chunk, t));
            self.log.wire_bytes += buf.len() as u64;
            // The coordinator decodes what the phone encodes: time that
            // decode here, on the same bytes.
            let t = Instant::now();
            let mut codec = FrameCodec::new();
            codec.extend(&buf);
            std::hint::black_box(codec.next_frame()?);
            add(&mut self.log.decode, name, ns_since(t));
        }
        self.conn.queue_bytes(buf.to_vec());
        self.flush()
    }

    fn flush(&mut self) -> CwcResult<()> {
        let t = Instant::now();
        let status = self.conn.flush();
        self.log.flush_ns += ns_since(t);
        self.spans.push(Span::new("flush", self.chunk, t));
        let want_write = match status {
            Ok(FlushStatus::Clean) => false,
            Ok(FlushStatus::Blocked) => true,
            Ok(FlushStatus::Paused(_) | FlushStatus::Held) => {
                self.conn.resume();
                true
            }
            Ok(FlushStatus::Closed) | Err(_) => {
                return Err(CwcError::Transport("connection closed".into()))
            }
        };
        if want_write != self.write_interest {
            self.write_interest = want_write;
            let interest = if want_write {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            self.poller.reregister(self.conn.fd(), 0, interest)?;
        }
        Ok(())
    }

    /// The coordinator encodes what the phone decodes: in a traced run,
    /// time that encode here by re-encoding the received frame.
    fn time_coordinator_encode(&mut self, frame: &Frame) {
        if !self.cfg.traced {
            return;
        }
        let t = Instant::now();
        let mut buf = bytes::BytesMut::new();
        frame.encode(&mut buf);
        add(&mut self.log.encode, frame_name(frame), ns_since(t));
        self.log.wire_bytes += buf.len() as u64;
        std::hint::black_box(buf);
    }

    /// Handles one decoded frame.
    fn handle(&mut self, frame: Frame, received: Instant) -> CwcResult<()> {
        self.time_coordinator_encode(&frame);
        match frame {
            Frame::BandwidthProbe { probe_id, .. } => {
                // Heterogeneous links, as on the paper's testbed.
                let kb_per_sec = 400.0 + 300.0 * self.index as f64;
                self.send(&Frame::BandwidthReport {
                    probe_id,
                    kb_per_sec,
                })?;
                self.report_sent = Some(Instant::now());
            }
            Frame::ShipExecutable { job, program, .. } => {
                self.programs.insert(job, program);
            }
            Frame::ShipInput {
                job,
                seq,
                offset_kb,
                len_kb,
                resume_from,
                data,
                ..
            } => {
                self.chunk = chunk_id(self.cfg.night, seq);
                self.spans.stamp_pending(self.chunk);
                match (self.complete_sent, self.report_sent) {
                    (Some(sent), _) => self
                        .log
                        .turnaround_us
                        .push(received.duration_since(sent).as_secs_f64() * 1e6),
                    (None, Some(sent)) => self
                        .log
                        .first_chunk_us
                        .push(received.duration_since(sent).as_secs_f64() * 1e6),
                    (None, None) => {}
                }
                // Checked before reporting, so the check lengthens the
                // phone's turn and never the measured turnaround.
                let t = Instant::now();
                if !records_match(
                    job_key(self.cfg.seed, self.cfg.night, job.0),
                    offset_kb,
                    len_kb,
                    &data,
                ) {
                    self.log.bad_inputs += 1;
                }
                self.spans.push(Span::new("verify", self.chunk, t));
                self.log.chunks += 1;
                self.log.payload_bytes += data.len() as u64;
                let result = self.execute(job, resume_from.as_deref(), &data)?;
                self.send(&Frame::TaskComplete {
                    job,
                    seq,
                    exec_ms: 1,
                    result: result.into(),
                })?;
                self.complete_sent = Some(Instant::now());
            }
            Frame::KeepAlive { seq } => self.send(&Frame::KeepAliveAck { seq })?,
            Frame::Shutdown => {
                self.shutdown = true;
                // A courtesy echo: the coordinator may already be gone.
                // cwc-lint: allow(error_swallowing)
                self.send(&Frame::Shutdown).ok();
            }
            // RegisterAck and CancelTask need no answer: a task runs to
            // completion before the next frame is read.
            _ => {}
        }
        Ok(())
    }

    /// Runs the real program over one partition.
    fn execute(&mut self, job: JobId, resume: Option<&[u8]>, data: &[u8]) -> CwcResult<Vec<u8>> {
        let t = Instant::now();
        let name = self
            .programs
            .get(&job)
            .ok_or_else(|| CwcError::Protocol(format!("input for {job} before its executable")))?;
        let program = self.registry.load(name)?;
        let mut state = match resume {
            Some(ck) => program.restore_state(ck)?,
            None => program.new_state(),
        };
        state.process_chunk(data)?;
        let result = state.partial_result();
        self.log.exec_ns += ns_since(t);
        self.spans.push(Span::new("task", self.chunk, t));
        Ok(result)
    }

    /// Serves the connection until the coordinator says `Shutdown` or
    /// closes it. A close without `Shutdown` marks the phone lost.
    fn serve(&mut self) -> CwcResult<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_heard = Instant::now();
        let timeout = if self.cfg.spin {
            Duration::ZERO
        } else {
            Duration::from_millis(500)
        };
        // When the current wait began: one wait, and one span, lasts
        // until events arrive, however many empty polls it takes.
        let mut waiting_since: Option<Instant> = None;
        while !self.shutdown {
            events.clear();
            let t = *waiting_since.get_or_insert_with(Instant::now);
            self.poller.wait(&mut events, Some(timeout))?;
            if events.is_empty() {
                if last_heard.elapsed() > SILENCE_LIMIT {
                    return Err(CwcError::Transport("coordinator went silent".into()));
                }
                if self.cfg.spin {
                    // Lets a sibling phone on the same CPU run.
                    std::thread::yield_now();
                }
                continue;
            }
            waiting_since = None;
            self.log.wait_ns += ns_since(t);
            self.spans.push_pending(Span::new("wait", 0, t));
            last_heard = Instant::now();
            if events.iter().any(|e| e.writable) && self.flush().is_err() {
                self.log.lost = 1;
                return Ok(());
            }
            let t = Instant::now();
            let status = self.conn.fill();
            self.log.fill_ns += ns_since(t);
            self.spans.push_pending(Span::new("fill", 0, t));
            loop {
                let t = Instant::now();
                let next = self.conn.next_frame();
                let frame = match next {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        self.log.lost = 1;
                        return Ok(());
                    }
                };
                add(&mut self.log.decode, frame_name(&frame), ns_since(t));
                self.spans.push_pending(Span::new("decode", 0, t));
                if self.handle(frame, Instant::now()).is_err() && !self.shutdown {
                    self.log.lost = 1;
                    return Ok(());
                }
                if self.shutdown {
                    return Ok(());
                }
            }
            match status {
                Ok(ReadStatus::Open) => {}
                Ok(ReadStatus::Eof) | Err(_) => {
                    self.log.lost = 1;
                    return Ok(());
                }
            }
        }
        Ok(())
    }
}

/// Connects, registers and serves one phone of night `night`.
fn run_phone(
    addr: SocketAddr,
    index: usize,
    cfg: NightCfg,
    registry: &TaskRegistry,
) -> CwcResult<(PhoneLog, SpanLog)> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| CwcError::Transport(format!("phone {index} connect: {e}")))?;
    let conn = Conn::from_stream(stream)?;
    let poller = Poller::new()?;
    poller.register(conn.fd(), 0, Interest::READ)?;
    let mut phone = Phone {
        index,
        cfg,
        registry,
        conn,
        poller,
        write_interest: false,
        programs: BTreeMap::new(),
        report_sent: None,
        complete_sent: None,
        chunk: 0,
        shutdown: false,
        log: PhoneLog::default(),
        spans: SpanLog::new(cfg.traced),
    };
    phone.send(&Frame::Register {
        phone: PhoneId(index as u32),
        clock_mhz: 1_000 + 200 * index as u32,
        cores: 2,
        radio: RadioTech::Wifi80211g,
        ram_kb: 1 << 20,
    })?;
    phone.serve()?;
    Ok((phone.log, phone.spans))
}

/// Serves one night with `phones` phones: phone 0 on the calling thread,
/// the others on scoped threads. Spans are appended to `spans`.
fn run_night(
    addr: SocketAddr,
    cfg: NightCfg,
    phones: usize,
    registry: &TaskRegistry,
    spans: &mut Vec<Span>,
) -> CwcResult<PhoneLog> {
    let results: Vec<CwcResult<(PhoneLog, SpanLog)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..phones)
            .map(|i| scope.spawn(move || run_phone(addr, i, cfg, registry)))
            .collect();
        let mut results = vec![run_phone(addr, 0, cfg, registry)];
        for h in handles {
            results.push(
                h.join()
                    .unwrap_or_else(|_| Err(CwcError::Transport("phone thread panicked".into()))),
            );
        }
        results
    });
    let mut night_log = PhoneLog::default();
    for r in results {
        let (log, mut phone_spans) = r?;
        night_log.merge(log);
        phone_spans.drain_into(spans);
    }
    Ok(night_log)
}

/// The child's main loop: pins itself to `cpus` (unless empty; its
/// phones then poll without sleeping), then
/// serves one night per stdin line, one JSON report per night on stdout;
/// writes its spans when stdin closes.
pub fn child_main(workload: &str, seed: u64, cpus: &[usize]) -> CwcResult<()> {
    if !cpus.is_empty() && !crate::host::pin_to(cpus) {
        return Err(CwcError::Config(format!(
            "cannot pin the fleet child to CPUs {cpus:?}"
        )));
    }
    let registry = cwc_tasks::standard_registry();
    let mut spans: Vec<Span> = Vec::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| CwcError::Transport(format!("stdin: {e}")))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        let bad = || CwcError::Config(format!("bad child command {line:?}"));
        let ["night", night, addr, phones, traced] = parts.as_slice() else {
            return Err(bad());
        };
        let (Ok(night), Ok(addr), Ok(phones), Ok(traced)) = (
            night.parse::<u64>(),
            addr.parse::<SocketAddr>(),
            phones.parse::<usize>(),
            traced.parse::<u8>(),
        ) else {
            return Err(bad());
        };
        let cfg = NightCfg {
            night,
            seed,
            traced: traced == 1,
            spin: !cpus.is_empty(),
        };
        let log = run_night(addr, cfg, phones, &registry, &mut spans)?;
        let text = serde_json::to_string(&log.to_json(night))
            .map_err(|e| CwcError::Transport(format!("night report: {e}")))?;
        writeln!(stdout, "{text}")
            .and_then(|()| stdout.flush())
            .map_err(|e| CwcError::Transport(format!("stdout: {e}")))?;
    }
    if !spans.is_empty() {
        write_spans(&format!("spans-{workload}-seed{seed}-child.jsonl"), &spans)
            .map_err(|e| CwcError::Config(format!("writing spans: {e}")))?;
    }
    Ok(())
}
