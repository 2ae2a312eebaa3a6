//! `wire-churn`: an in-process `harpd` with its journal on and one reactor
//! shard, and one client thread that runs closed-loop session lifecycles
//! through libharp: connect, register with a two-point profile, wait for
//! the first activation, exit. Daemon and client share one CPU.
//!
//! At most one session is live, so the RM's work is trivial; the time
//! goes to accept handoff, frame codec, reactor dispatch, outbound
//! flushes, journal appends and hangup reaping.

use crate::report::Outcome;
use crate::spans;
use crate::stats::{another_round, median, peak_rss_mib, percentile, process_cpu_s};
use harp_daemon::{affinity, DaemonConfig, DaemonHandle, HarpDaemon, UnixTransport};
use harp_platform::{presets, HardwareDescription};
use harp_proto::{AdaptivityType, Message};
use harp_rm::RmCore;
use harp_types::{ExtResourceVector, HarpError, NonFunctional, Result};
use libharp::{HarpSession, SessionConfig, Transport};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Lifecycles per round.
const LIFECYCLES_PER_ROUND: usize = 50;
/// Set-ups timed per run (the median is reported).
const SETUP_REPEATS: usize = 5;
/// Lifecycles run as part of each set-up, after the daemon boots and
/// before anything is measured: they warm the accept path, the allocator
/// and the journal file, and make the set-up a step long enough to time
/// steadily (one boot alone is about 50 us of thread starts).
const WARMUP_LIFECYCLES: usize = 200;
/// Lifecycles needed before the run may stop, so the p99 has at least
/// ten samples beyond it.
const MIN_LIFECYCLES: usize = 1000;
/// A client that hears nothing for this long counts the lifecycle failed
/// instead of hanging the run.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the daemon may take to reap the last session after the
/// client stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What one lifecycle's transport saw.
#[derive(Default)]
struct Seen {
    acks: u32,
    activates: u32,
    bad: Vec<String>,
}

/// A libharp transport that passes every frame through and tallies the
/// acks and activations the session receives.
struct Counting {
    inner: UnixTransport,
    seen: Rc<RefCell<Seen>>,
    hw_threads: usize,
}

impl Counting {
    fn note(&self, m: &Message) {
        let mut seen = self.seen.borrow_mut();
        match m {
            Message::RegisterAck(_) => seen.acks += 1,
            Message::Activate(a) => {
                seen.activates += 1;
                if a.parallelism as usize != a.hw_thread_ids.len() {
                    seen.bad.push(format!(
                        "activation parallelism {} with {} threads",
                        a.parallelism,
                        a.hw_thread_ids.len()
                    ));
                }
                if let Some(t) = a
                    .hw_thread_ids
                    .iter()
                    .find(|&&t| t as usize >= self.hw_threads)
                {
                    seen.bad
                        .push(format!("activation names thread {t} out of range"));
                }
            }
            _ => {}
        }
    }
}

impl Transport for Counting {
    fn send(&mut self, msg: &Message) -> Result<()> {
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Message> {
        if !self.inner.poll_ready(Some(RECV_TIMEOUT))? {
            return Err(HarpError::other("no frame from the daemon within 10 s"));
        }
        let m = self.inner.recv()?;
        self.note(&m);
        Ok(m)
    }

    fn try_recv(&mut self) -> Result<Option<Message>> {
        let m = self.inner.try_recv()?;
        if let Some(m) = &m {
            self.note(m);
        }
        Ok(m)
    }

    fn poll_ready(&mut self, timeout: Option<Duration>) -> Result<bool> {
        self.inner.poll_ready(timeout)
    }
}

/// The two-point profile every session submits: a P-core team and an
/// E-core team, sized by the seed. Two sessions always fit the P-cores
/// together, so every seed runs the same message pattern.
fn session_config(hw: &HardwareDescription, seed: u64) -> SessionConfig {
    let shape = hw.erv_shape();
    let p = 2 + (seed % 3) as u32;
    let e = 4 + 2 * ((seed / 3) % 3) as u32;
    let point = |flat: &[u32], u: f64, w: f64| {
        (
            ExtResourceVector::from_flat(&shape, flat).expect("point fits the preset"),
            NonFunctional::new(u, w),
        )
    };
    SessionConfig::new("wire-churn", AdaptivityType::Scalable).with_points(
        vec![2, 1],
        vec![
            point(&[0, p, 0], 7.5e9 * f64::from(p), 9.0 * f64::from(p) + 4.0),
            point(&[0, 0, e], 2.6e9 * f64::from(e), 2.2 * f64::from(e) + 4.0),
        ],
    )
}

/// What the client saw over its lifecycles.
#[derive(Default)]
struct ClientTally {
    attempted: u64,
    failed: u64,
    /// Process CPU time (client and daemon) per completed lifecycle.
    cpu_us: Vec<f64>,
    violations: Vec<String>,
}

fn lifecycle(socket: &Path, cfg: &SessionConfig, hw_threads: usize, tally: &mut ClientTally) {
    tally.attempted += 1;
    let seen = Rc::new(RefCell::new(Seen::default()));
    let t0 = process_cpu_s();
    let result = (|| -> Result<()> {
        let inner = {
            let _s = spans::span("transport.connect");
            UnixTransport::connect(socket)?
        };
        let transport = Counting {
            inner,
            seen: seen.clone(),
            hw_threads,
        };
        let mut session = {
            let _s = spans::span("libharp.connect");
            HarpSession::connect(transport, cfg.clone())?
        };
        {
            let _s = spans::span("libharp.activate");
            while session.allocation().current().is_none() {
                session.poll_blocking(|| 0.0)?;
            }
        }
        let _s = spans::span("libharp.exit");
        session.exit()
    })();
    let cpu_us = (process_cpu_s() - t0) * 1e6;
    if let Err(e) = result {
        tally.failed += 1;
        eprintln!("perfbench: lifecycle failed: {e}");
        return;
    }
    tally.cpu_us.push(cpu_us);
    let seen = seen.borrow();
    if seen.acks != 1 {
        tally
            .violations
            .push(format!("lifecycle saw {} acks", seen.acks));
    }
    if seen.activates == 0 {
        tally.violations.push("lifecycle saw no activation".into());
    }
    tally.violations.extend(seen.bad.iter().cloned());
}

/// One reactor shard: the one client needs no more, and a second would
/// only add a thread to the one CPU.
fn daemon_config(socket: &Path, journal: &Path, hw: &HardwareDescription) -> DaemonConfig {
    DaemonConfig::new(socket, hw.clone())
        .with_shards(1)
        .with_journal(journal)
}

fn boot(cfg: &DaemonConfig, journal: &Path) -> Result<DaemonHandle> {
    match std::fs::remove_file(journal) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    HarpDaemon::start(cfg.clone())
}

/// Reactor shard slots whose counters are read (the daemon's shard cap;
/// slots it never spawned read 0).
const SHARD_SLOTS: usize = 8;

/// Sums a `daemon.shard{N}.<what>` counter over every shard.
fn shard_sum(snap: &harp_obs::metrics::MetricsSnapshot, what: &str) -> u64 {
    (0..SHARD_SLOTS)
        .map(|i| snap.counter(&format!("daemon.shard{i}.{what}")))
        .sum()
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the last CPU it may run on. The client and the daemon then hand each
/// frame over by switching threads on that CPU instead of waking an idle
/// one, which keeps their CPU time per lifecycle the same whether the
/// host's other CPUs are idle or busy.
fn pin_to_one_cpu() -> Result<()> {
    let cpu = *affinity::current_affinity()?
        .last()
        .ok_or_else(|| HarpError::other("empty CPU affinity set"))?;
    affinity::pin_current_thread(&[cpu])
}

/// Runs the workload for whole rounds for about `seconds`. Timings are
/// process CPU time, the client's and the daemon's together: with one
/// client and every thread on one CPU, the CPU time that passes during a
/// lifecycle is the cost of that lifecycle.
pub fn run(seed: u64, seconds: u64, traced: bool, workdir: &Path) -> Outcome {
    let hw = presets::raptor_lake();
    let hw_threads = hw.total_hw_threads();
    let mut out = Outcome::default();
    // Before the daemon or the client starts a thread, so all of them
    // share the one CPU.
    if out.setup("pinning to one CPU", pin_to_one_cpu()).is_none() {
        return out;
    }
    let socket = workdir.join(format!("harpd-{}.sock", std::process::id()));
    let journal: PathBuf = workdir.join(format!("harpd-{}.journal", std::process::id()));
    let dcfg = daemon_config(&socket, &journal, &hw);

    let cfg = session_config(&hw, seed);

    // Set-up: boot the daemon, then warm it up. Only the last daemon is
    // kept; its journal holds the warm-up lifecycles too.
    let mut setups = Vec::new();
    let mut handle = None;
    let mut compactions_at_boot = 0;
    for i in 0..SETUP_REPEATS {
        compactions_at_boot = harp_obs::metrics::snapshot().counter("rm.journal_compactions");
        let t = process_cpu_s();
        let Some(h) = out.setup("HarpDaemon::start", boot(&dcfg, &journal)) else {
            return out;
        };
        let mut warm = ClientTally::default();
        for _ in 0..WARMUP_LIFECYCLES {
            lifecycle(&socket, &cfg, hw_threads, &mut warm);
        }
        setups.push(process_cpu_s() - t);
        if warm.failed > 0 || !warm.violations.is_empty() {
            out.violation(format!(
                "set-up warm-up: {} lifecycles failed, first check failed: {:?}",
                warm.failed,
                warm.violations.first()
            ));
        }
        if i + 1 < SETUP_REPEATS {
            h.shutdown();
        } else {
            handle = Some(h);
        }
    }
    let handle = handle.expect("last boot kept");

    let alloc_before = harp_alloc::stats::snapshot();
    let m_before = harp_obs::metrics::snapshot();
    let mut tally = ClientTally::default();
    let mut rounds = Vec::new();
    let start = Instant::now();
    let mut wall_s = 0.0;
    while rounds.is_empty()
        || another_round(start, seconds, wall_s)
        || rounds.len() * LIFECYCLES_PER_ROUND < MIN_LIFECYCLES
    {
        let (w, t) = (Instant::now(), process_cpu_s());
        {
            let _s = spans::span("round");
            for _ in 0..LIFECYCLES_PER_ROUND {
                lifecycle(&socket, &cfg, hw_threads, &mut tally);
            }
        }
        rounds.push(process_cpu_s() - t);
        wall_s = w.elapsed().as_secs_f64();
    }
    let m_after = harp_obs::metrics::snapshot();
    // Peak memory of set-up and the measured rounds, before the checks
    // below read the whole journal back.
    let peak_rss = peak_rss_mib().unwrap_or(0.0);
    let alloc_after = harp_alloc::stats::snapshot();
    out.rounds = rounds.len() as u64;

    out.attempted += tally.attempted;
    out.failed += tally.failed;
    for v in tally.violations {
        out.violation(v);
    }
    let cpu_us = tally.cpu_us;
    let lifecycles = out.attempted as f64;

    // Once the client stops, the daemon must reap every session.
    let drain = Instant::now();
    while !handle.managed_apps().is_empty() && drain.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let left = handle.managed_apps().len();
    if left != 0 {
        out.violation(format!(
            "{left} sessions still managed after the client stopped"
        ));
    }
    handle.shutdown();

    // The journal must replay to an RM that manages nothing. It holds the
    // boot epoch, the last compaction's snapshot (if any), then the records
    // appended since; every compaction followed `compact_every` appends.
    let compactions =
        harp_obs::metrics::snapshot().counter("rm.journal_compactions") - compactions_at_boot;
    let mut journal_bytes = 0.0;
    let mut journal_records = 0.0;
    match harp_rm::journal::read_journal(&journal) {
        Ok(read) => {
            let skip = 1 + usize::from(compactions > 0);
            let tail = read.records.get(skip..).unwrap_or_default();
            journal_records = (compactions * dcfg.compact_every) as f64 + tail.len() as f64;
            // Framed size (length + CRC + body) of an appended record,
            // averaged over the records after the last compaction.
            let tail_bytes: usize = tail.iter().map(|r| 8 + r.encode().len()).sum();
            journal_bytes = journal_records * tail_bytes as f64 / tail.len().max(1) as f64;
            if read.truncated {
                out.violation("journal has a torn tail after a clean shutdown");
            }
            match RmCore::recover(hw.clone(), dcfg.rm.clone(), &read.records) {
                Ok(rm) if rm.managed_apps().is_empty() => {}
                Ok(rm) => out.violation(format!(
                    "journal recovers {} managed sessions",
                    rm.managed_apps().len()
                )),
                Err(e) => out.violation(format!("journal recovery failed: {e}")),
            }
        }
        Err(e) => out.violation(format!("journal unreadable: {e}")),
    }
    let _ = std::fs::remove_file(&journal);

    let round_s = median(&rounds).unwrap_or(0.0);
    let completed = (out.attempted - out.failed) as f64;
    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e.insert("peak_rss_mb", peak_rss);
    out.e2e
        .insert("ops_per_s", completed / rounds.iter().sum::<f64>());
    out.e2e.insert("op_p50_us", median(&cpu_us).unwrap_or(0.0));
    out.e2e
        .insert("op_tail_us", percentile(&cpu_us, 90.0).unwrap_or(0.0));
    out.e2e.insert("round_s", round_s);

    if traced {
        let spans = spans::take();
        let durations = spans::durations_us(&spans);
        for name in [
            "transport.connect",
            "libharp.connect",
            "libharp.activate",
            "libharp.exit",
        ] {
            let samples = durations.get(name).cloned().unwrap_or_default();
            out.call_stats(name, &samples, false, true);
        }
        let per = |a: u64, b: u64| (a - b) as f64 / lifecycles.max(1.0);
        for (key, what) in [
            ("daemon.frames", "frames"),
            ("daemon.flushes", "flushes"),
            ("daemon.accepts", "accepted"),
            ("daemon.hangups", "hangups"),
        ] {
            out.layer(
                key,
                per(shard_sum(&m_after, what), shard_sum(&m_before, what)),
            );
        }
        // The kept daemon's journal also holds its warm-up lifecycles.
        let journaled = lifecycles + WARMUP_LIFECYCLES as f64;
        out.layer("journal.bytes", journal_bytes / journaled);
        out.layer("journal.records", journal_records / journaled);
        crate::rm_flash::alloc_layers(&mut out, &alloc_before, &alloc_after);
        out.traced_copies(&spans);
        crate::finish_trace("wire-churn", seed, &spans);
    }
    out
}
