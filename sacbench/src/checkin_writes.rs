//! `checkin_writes`: a writer replays a seeded check-in stream into a
//! durable `LiveEngine` (fsync `always`, checkpoint every 64 commits — the
//! shipped defaults) while a reader runs θ and interactive queries.  Core
//! maintenance, snapshot rebuild, the engine's publish and cache
//! invalidation, and the WAL do most of the work.

use crate::common::{
    dataset, mean, median, peak_rss_mb, percentile, query_vertices, request_stream, rng,
    set_up_repeatedly, validation_set, Failures, Outcome, Request, Tier, K,
};
use crate::query_mix::{InProcess, THETA_RANGE};
use crate::runner::{
    closed_loop, finish_trace, overhead_ratio, read_layer_metrics, traced_split,
    transport_metrics, validate, Phase,
};
use crate::trace::Tracer;
use crate::Args;
use rand::Rng;
use sac_data::CheckinGenerator;
use sac_engine::SacEngine;
use sac_geom::Point;
use sac_graph::{SpatialGraph, VertexId};
use sac_live::{CommitReport, Durability, LiveEngine, SacService, ServiceConfig};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mutations per commit.
const COMMIT_EVERY: usize = 16;
/// Every `EDGE_OP_EVERY`-th mutation removes an edge or puts it back.
const EDGE_OP_EVERY: usize = 64;
/// Distinct edges the writer toggles.
const TOGGLED_EDGES: usize = 512;
const READER_WEIGHTS: [(Tier, u32); 2] = [(Tier::Theta, 4), (Tier::Interactive, 1)];
const THETA_TAIL: f64 = 99.0;
const INTERACTIVE_TAIL: f64 = 95.0;
const BATCH_TAIL: f64 = 99.0;
/// Explicit checkpoints the traced run times after its writes.
const CHECKPOINTS: usize = 3;

/// One write of the replayed stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Move(VertexId, Point),
    Remove(VertexId, VertexId),
    Add(VertexId, VertexId),
}

/// The seeded write stream: check-ins as vertex moves, with every
/// `EDGE_OP_EVERY`-th slot removing an existing edge or restoring the one
/// removed before it, so the graph's structure stays put on average.
fn write_stream(g: &SpatialGraph, seed: u64) -> Vec<Op> {
    let checkins = CheckinGenerator {
        checkins_per_user: 4,
        ..CheckinGenerator::default()
    }
    .generate(g, &mut rng(seed, 3));
    let mut r = rng(seed, 4);
    let mut edges = BTreeSet::new();
    while edges.len() < TOGGLED_EDGES {
        let u = r.gen_range(0..g.num_vertices()) as VertexId;
        let neighbours = g.neighbors(u);
        if !neighbours.is_empty() {
            let v = neighbours[r.gen_range(0..neighbours.len())];
            edges.insert((u.min(v), u.max(v)));
        }
    }
    let edges: Vec<_> = edges.into_iter().collect();
    let mut ops = Vec::new();
    let mut toggles = 0usize;
    for c in checkins.records() {
        if ops.len() % EDGE_OP_EVERY == EDGE_OP_EVERY - 1 {
            let (u, v) = edges[(toggles / 2) % edges.len()];
            ops.push(if toggles.is_multiple_of(2) {
                Op::Remove(u, v)
            } else {
                Op::Add(u, v)
            });
            toggles += 1;
        }
        ops.push(Op::Move(c.user, c.position));
    }
    ops
}

/// What the writer did in one phase.
#[derive(Default)]
struct WriterLog {
    mutations: u64,
    /// Seconds since the phase began at which each commit completed.
    commit_ends: Vec<f64>,
    commits_ms: Vec<f64>,
    /// Each batch from its first mutation to the end of its commit.
    batches_ms: Vec<f64>,
    reports: Vec<CommitReport>,
    failures: Failures,
    wall: Duration,
    wal_bytes: u64,
    tracer: Option<Tracer>,
}

/// Replays `ops` from `start` until `duration` has passed, committing every
/// `COMMIT_EVERY` mutations; the last commit completes after the deadline.
/// Returns the log and the next position in the stream.
fn write(
    live: &LiveEngine,
    ops: &[Op],
    start: usize,
    duration: Duration,
    tracer: Option<Tracer>,
) -> (WriterLog, usize) {
    let appended = live.engine().metrics().counter(
        "sac_wal_appended_bytes_total",
        "Record bytes appended to the write-ahead log",
        &[],
    );
    let bytes0 = appended.get();
    let mut log = WriterLog {
        tracer,
        ..WriterLog::default()
    };
    let began = Instant::now();
    let deadline = began + duration;
    let mut i = start;
    let mut pending = 0;
    let mut batch = Instant::now();
    loop {
        if pending == 0 {
            batch = Instant::now();
        }
        let op = ops[i % ops.len()];
        i += 1;
        let apply = || match op {
            Op::Move(v, p) => live.move_vertex(v, p).map(|_| ()),
            Op::Remove(u, v) => live.remove_edge(u, v).map(|_| ()),
            Op::Add(u, v) => live.add_edge(u, v).map(|_| ()),
        };
        let applied = match log.tracer.as_mut() {
            Some(tr) => tr.time("sac_live.mutation", None, i as u64, apply),
            None => apply(),
        };
        if let Err(e) = applied {
            log.failures.add("mutation_error", format!("{op:?}: {e}"));
        }
        log.mutations += 1;
        pending += 1;
        if pending < COMMIT_EVERY {
            continue;
        }
        pending = 0;
        let t0 = Instant::now();
        let committed = match log.tracer.as_mut() {
            Some(tr) => tr.time("sac_live.commit", None, i as u64, || live.commit()),
            None => live.commit(),
        };
        log.commits_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.batches_ms.push(batch.elapsed().as_secs_f64() * 1e3);
        log.commit_ends.push(began.elapsed().as_secs_f64());
        match committed {
            Ok(report) => log.reports.push(report),
            Err(e) => log.failures.add("commit_error", e.to_string()),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    log.wall = began.elapsed();
    log.wal_bytes = appended.get() - bytes0;
    if let Some(tr) = log.tracer.as_mut() {
        tr.wall_ns = log.wall.as_nanos() as u64;
    }
    (log, i)
}

impl WriterLog {
    /// Mutations per second, commits included: the median over the phase's
    /// one-second windows of the mutations committed in each window divided
    /// by the time from the window's first to its last commit end, so a
    /// stall of a second or two on the shared machine does not move it.
    fn mutation_qps(&self) -> f64 {
        let mut rates = Vec::new();
        let mut last_end = 0.0;
        let mut i = 0;
        for w in 1..=self.wall.as_secs() {
            let first = last_end;
            let mut commits = 0;
            while i < self.commit_ends.len() && self.commit_ends[i] < w as f64 {
                last_end = self.commit_ends[i];
                commits += 1;
                i += 1;
            }
            if commits > 0 {
                rates.push((commits * COMMIT_EVERY) as f64 / (last_end - first));
            }
        }
        if rates.is_empty() {
            return self.mutations as f64 / self.wall.as_secs_f64();
        }
        median(&rates)
    }
}

/// Builds the durable serving stack over a fresh WAL directory.
fn set_up(dir: &Path) -> Result<(Arc<SacService>, f64), String> {
    let engine = Arc::new(SacEngine::new(dataset()));
    let warm = Instant::now();
    engine.warm(&[K]);
    let warm_us = warm.elapsed().as_secs_f64() * 1e6;
    let live =
        LiveEngine::with_durability(engine, Durability::new(dir)).map_err(|e| e.to_string())?;
    Ok((
        Arc::new(SacService::with_live(live, ServiceConfig::default())),
        warm_us,
    ))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = args.out.join(format!("wal-{}", std::process::id()));
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One phase: the writer on a thread of its own, the reader's closed loop
/// on this one.
fn phase(
    service: &Arc<SacService>,
    ops: &[Op],
    start: usize,
    reader: &[Vec<Request>],
    duration: Duration,
    traced: bool,
    origin: Instant,
) -> (WriterLog, usize, Phase) {
    let live = service.live();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let tracer = traced.then(|| Tracer::new(origin, 1));
            write(&live, ops, start, duration, tracer)
        });
        let client = InProcess::new(service, true);
        let reads = closed_loop(vec![client], reader, duration, traced, origin, None);
        let (log, next) = writer.join().expect("writer thread panicked");
        (log, next, reads)
    })
}

fn measure(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut warms = Vec::new();
    let (service, setups) = set_up_repeatedly(|rep| {
        let (service, warm_us) = set_up(&dir.join(format!("setup-{rep}")))?;
        warms.push(warm_us);
        Ok(service)
    })?;
    let live = service.live();
    let snapshot = service.engine().snapshot();
    let qs = query_vertices(&snapshot, args.seed);
    let radius = validate(
        &mut out,
        &snapshot,
        &validation_set(args.seed, &qs),
        &mut InProcess::new(&service, false),
    );
    let ops = write_stream(&snapshot, args.seed);
    drop(snapshot);
    let reader = vec![request_stream(
        args.seed,
        0,
        &qs,
        &READER_WEIGHTS,
        THETA_RANGE,
        50_000,
    )];
    let origin = Instant::now();
    let count = |out: &mut Outcome, log: &WriterLog, reads: &Phase| {
        out.attempted += reads.attempted() + log.mutations + log.commits_ms.len() as u64;
        out.failures.merge(reads.failures());
        out.failures.merge(log.failures.clone());
    };
    if !args.trace {
        let (log, _, reads) = phase(&service, &ops, 0, &reader, args.seconds, false, origin);
        count(&mut out, &log, &reads);
        out.setup(&setups);
        out.metric("mcc_radius_mean", radius, "coord");
        out.latency("theta", &reads.latencies_ms(Tier::Theta), THETA_TAIL);
        out.latency(
            "interactive",
            &reads.latencies_ms(Tier::Interactive),
            INTERACTIVE_TAIL,
        );
        out.metric(
            "query_qps",
            reads.completed() as f64 / reads.elapsed.as_secs_f64(),
            "1/s",
        );
        // The heavy operation here is a write batch: its mutations and
        // their commit.
        out.latency("heavy", &log.batches_ms, BATCH_TAIL);
        out.extra("commit_p50_ms", percentile(&log.commits_ms, 50.0), "ms");
        out.extra("commit_p99_ms", percentile(&log.commits_ms, 99.0), "ms");
        out.extra("mutation_qps", log.mutation_qps(), "1/s");
        out.extra(
            "wal_bytes_per_mutation",
            log.wal_bytes as f64 / log.mutations.max(1) as f64,
            "bytes",
        );
        out.metric("peak_rss_mb", peak_rss_mb(None), "MB");
        out.note(format!(
            "{} mutations in {} commits; {} replies deep-checked",
            log.mutations,
            log.commits_ms.len(),
            reads.deep_checked()
        ));
        return Ok(out);
    }
    let (first, second) = traced_split(args.seconds);
    let (log0, next, reads0) = phase(&service, &ops, 0, &reader, first, false, origin);
    count(&mut out, &log0, &reads0);
    let (mut log, _, mut reads) = phase(&service, &ops, next, &reader, second, true, origin);
    count(&mut out, &log, &reads);
    let reader = reads.trace.as_ref().expect("traced phase records spans");
    read_layer_metrics(&mut out, &reads0, &reads, reader, &warms);
    transport_metrics(&mut out, &reads0);
    let mut trace = reads.trace.take().expect("traced phase records spans");
    trace.add(log.tracer.take().expect("traced writer records spans"));
    out.extra(
        "sac_live.mutation_us",
        mean(&trace.micros("sac_live.mutation")),
        "us",
    );
    // The first query to see each new epoch pays for what the commit
    // invalidated.
    let mut seen = 0;
    let mut post_commit = Vec::new();
    for r in reads.records() {
        if let Some(info) = r.info {
            if info.epoch > seen && seen > 0 {
                post_commit.push(r.wall_ms * 1e3);
            }
            seen = seen.max(info.epoch);
        }
    }
    out.extra("sac_engine.post_commit_query_us", mean(&post_commit), "us");
    let reports = &log.reports;
    let per_commit =
        |f: &dyn Fn(&CommitReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    out.extra("sac_live.commit_us", per_commit(&|r| r.micros as f64), "us");
    out.extra(
        "sac_live.snapshot_build_us",
        per_commit(&|r| r.snapshot_build_micros as f64),
        "us",
    );
    out.extra(
        "sac_engine.publish_us",
        per_commit(&|r| (r.rebuild_micros + r.swap_micros) as f64),
        "us",
    );
    out.extra(
        "sac_engine.components_invalidated_per_commit",
        per_commit(&|r| r.components_invalidated as f64),
        "count",
    );
    let mutations: usize = reports.iter().map(|r| r.mutations).sum();
    let cores: u64 = reports.iter().map(|r| r.cores_changed).sum();
    out.extra(
        "sac_graph.cores_changed_per_mutation",
        cores as f64 / mutations.max(1) as f64,
        "count",
    );
    out.extra(
        "sac_wal.log_bytes_per_commit",
        log.wal_bytes as f64 / reports.len().max(1) as f64,
        "bytes",
    );
    let mut checkpoint_us = Vec::new();
    let mut snapshot_bytes = 0.0;
    for _ in 0..CHECKPOINTS {
        out.attempted += 1;
        match live.checkpoint() {
            Ok(report) => {
                checkpoint_us.push(report.micros as f64);
                snapshot_bytes = report.snapshot_bytes as f64;
            }
            Err(e) => out.failures.add("checkpoint_error", e.to_string()),
        }
    }
    out.extra("sac_wal.checkpoint_us", median(&checkpoint_us), "us");
    out.extra("sac_wal.snapshot_bytes", snapshot_bytes, "bytes");
    out.metric("trace.covered_share", trace.covered_share(), "share");
    out.metric(
        "trace.overhead_ratio",
        overhead_ratio(&reads0, &reads),
        "ratio",
    );
    out.note(format!(
        "commit p50 {:.3} ms over {} commits",
        percentile(&log.commits_ms, 50.0),
        log.commits_ms.len()
    ));
    finish_trace(&mut out, args, &trace);
    Ok(out)
}
