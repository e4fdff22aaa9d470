//! The closed-loop load generator shared by the workloads, the traced run's
//! two phases, and the checks and metrics every workload reports alike.

use crate::common::{
    check_reply, deep_check, mean, median, Failure, Failures, Outcome, ReplyInfo, Request, Tier,
    CEILING,
};
use crate::trace::{Trace, Tracer, REQUEST};
use crate::Args;
use sac_graph::SpatialGraph;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `SAMPLE_EVERY`-th request of a client is deep-checked.
pub const SAMPLE_EVERY: usize = 25;

/// A reply plus, when known, the snapshot that served it (for deep checks).
pub struct Reply {
    pub line: String,
    pub snapshot: Option<Arc<SpatialGraph>>,
}

/// One attempted request, in stream order.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub tier: Tier,
    /// Client-side wall time of the call, milliseconds.
    pub wall_ms: f64,
    /// The checked reply (`None` when the request failed).
    pub info: Option<ReplyInfo>,
}

/// What one client did.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub records: Vec<Record>,
    pub attempted: u64,
    pub failures: Failures,
    pub deep_checked: u64,
    pub wall: Duration,
}

/// A client's way of sending one request.  With a tracer, the call records
/// its layer spans under the request span `root`.
pub trait Client: Send {
    fn call(
        &mut self,
        req: &Request,
        trace: Option<(&mut Tracer, usize)>,
    ) -> Result<Reply, Failure>;

    /// Whether feasible replies list their members.
    fn members(&self) -> bool {
        true
    }

    /// Deep check of a reply served from `g`; returns the radius of a
    /// feasible answer.
    fn deep_check(
        &mut self,
        g: &SpatialGraph,
        req: &Request,
        line: &str,
    ) -> Result<Option<f64>, String> {
        deep_check(g, req, line)
    }
}

/// All clients of one closed-loop phase.
pub struct Phase {
    pub clients: Vec<ClientLog>,
    pub elapsed: Duration,
    pub trace: Option<Trace>,
}

impl Phase {
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.clients.iter().flat_map(|c| c.records.iter())
    }

    pub fn completed(&self) -> u64 {
        self.records().filter(|r| r.info.is_some()).count() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    pub fn failures(&self) -> Failures {
        let mut all = Failures::default();
        for c in &self.clients {
            all.merge(c.failures.clone());
        }
        all
    }

    pub fn latencies_ms(&self, tier: Tier) -> Vec<f64> {
        self.records()
            .filter(|r| r.tier == tier && r.info.is_some())
            .map(|r| r.wall_ms)
            .collect()
    }

    pub fn deep_checked(&self) -> u64 {
        self.clients.iter().map(|c| c.deep_checked).sum()
    }
}

/// Runs one closed loop per client over its request stream (cycling when a
/// stream runs out) until `duration` has passed; the request in flight at
/// the deadline completes and counts.  `origin` timestamps spans when
/// `traced`.
pub fn closed_loop<C: Client>(
    clients: Vec<C>,
    streams: &[Vec<Request>],
    duration: Duration,
    traced: bool,
    origin: Instant,
    graph: Option<&SpatialGraph>,
) -> Phase {
    assert_eq!(clients.len(), streams.len(), "one stream per client");
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<(ClientLog, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(t, (mut client, stream))| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut tracer = traced.then(|| Tracer::new(origin, t as u32));
                    let began = Instant::now();
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let req = &stream[i % stream.len()];
                        log.attempted += 1;
                        let t0 = Instant::now();
                        let reply = match tracer.as_mut() {
                            Some(tr) => {
                                let root = tr.open(REQUEST, None, req.id);
                                let reply = client.call(req, Some((&mut *tr, root)));
                                tr.close(root);
                                reply
                            }
                            None => client.call(req, None),
                        };
                        let wall = t0.elapsed();
                        let info = match reply {
                            Err((class, detail)) => {
                                log.failures.add(class, detail);
                                None
                            }
                            Ok(_) if wall > CEILING => {
                                log.failures
                                    .add("over_ceiling", format!("{} took {wall:?}", req.body));
                                None
                            }
                            Ok(reply) => match check_reply(&reply.line, req, client.members()) {
                                Err((class, detail)) => {
                                    log.failures.add(class, detail);
                                    None
                                }
                                Ok(info) => {
                                    if i.is_multiple_of(SAMPLE_EVERY) {
                                        let g = reply.snapshot.as_deref().or(graph);
                                        if let Some(g) = g {
                                            log.deep_checked += 1;
                                            if let Err(e) =
                                                client.deep_check(g, req, &reply.line)
                                            {
                                                log.failures.add(
                                                    "deep_check",
                                                    format!("{}: {e}", req.body),
                                                );
                                            }
                                        }
                                    }
                                    Some(info)
                                }
                            },
                        };
                        log.records.push(Record {
                            tier: req.tier,
                            wall_ms: wall.as_secs_f64() * 1e3,
                            info,
                        });
                        i += 1;
                    }
                    log.wall = began.elapsed();
                    if let Some(tr) = tracer.as_mut() {
                        tr.wall_ns = log.wall.as_nanos() as u64;
                    }
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut trace = traced.then(Trace::default);
    let mut logs = Vec::new();
    for (log, tracer) in results {
        if let (Some(trace), Some(tracer)) = (trace.as_mut(), tracer) {
            trace.add(tracer);
        }
        logs.push(log);
    }
    Phase {
        clients: logs,
        elapsed,
        trace,
    }
}

/// Traced wall time over untraced wall time for the requests both phases
/// completed (same client, same stream position).
pub fn overhead_ratio(untraced: &Phase, traced: &Phase) -> f64 {
    let (mut a, mut b) = (0.0, 0.0);
    for (u, t) in untraced.clients.iter().zip(&traced.clients) {
        let n = u.records.len().min(t.records.len());
        a += u.records[..n].iter().map(|r| r.wall_ms).sum::<f64>();
        b += t.records[..n].iter().map(|r| r.wall_ms).sum::<f64>();
    }
    b / a
}

/// Splits a traced run's time: the first share replays the streams
/// untraced, the rest replays them again traced.
pub fn traced_split(total: Duration) -> (Duration, Duration) {
    let untraced = total.mul_f64(0.3);
    (untraced, total - untraced)
}

/// Runs the validation set through `client` before timing starts,
/// deep-checks every answer against `g` and returns the mean MCC radius of
/// the feasible answers (`mcc_radius_mean`).
pub fn validate(
    out: &mut Outcome,
    g: &SpatialGraph,
    set: &[Request],
    client: &mut impl Client,
) -> f64 {
    let mut radii = Vec::new();
    for req in set {
        out.attempted += 1;
        let checked = client.call(req, None).and_then(|reply| {
            check_reply(&reply.line, req, client.members())?;
            client
                .deep_check(g, req, &reply.line)
                .map_err(|e| ("deep_check", format!("{}: {e}", req.body)))
        });
        match checked {
            Ok(Some(radius)) => radii.push(radius),
            Ok(None) => {}
            Err((class, detail)) => out.failures.add(class, detail),
        }
    }
    out.note(format!(
        "validation: {} queries, {} feasible, mean MCC radius {:.6}",
        set.len(),
        radii.len(),
        mean(&radii)
    ));
    mean(&radii)
}

/// Per-layer metrics read from the replies of a phase: what the engine
/// reports about each query.
pub fn reply_metrics(out: &mut Outcome, phase: &Phase) {
    let infos: Vec<_> = phase
        .records()
        .filter_map(|r| r.info.map(|i| (r.tier, i)))
        .collect();
    let replies = infos.len().max(1) as f64;
    let share = |pred: &dyn Fn(&ReplyInfo) -> bool| {
        infos.iter().filter(|(_, i)| pred(i)).count() as f64 / replies
    };
    out.metric(
        "sac_proto.reply_bytes",
        mean(
            &infos
                .iter()
                .map(|(_, i)| i.bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    out.metric(
        "sac_engine.cache_hit_share",
        share(&|i| i.cache_hit),
        "share",
    );
    out.metric("sac_core.feasible_share", share(&|i| i.feasible), "share");
    // Probe and candidate counts come from the sweep-based tiers.
    let sweeps: Vec<_> = infos
        .iter()
        .filter(|(t, _)| *t != Tier::Theta)
        .map(|(_, i)| *i)
        .collect();
    let n = sweeps.len().max(1) as f64;
    let members: usize = sweeps.iter().map(|i| i.size).sum();
    let candidates: u64 = sweeps.iter().map(|i| i.candidates).sum();
    out.metric(
        "sac_core.probes_per_query",
        sweeps.iter().map(|i| i.probes).sum::<u64>() as f64 / n,
        "count",
    );
    out.metric(
        "sac_core.candidates_per_query",
        candidates as f64 / n,
        "count",
    );
    out.metric(
        "sac_core.candidates_per_member",
        candidates as f64 / members.max(1) as f64,
        "ratio",
    );
}

/// A round trip this much longer than the reply's own service time is a
/// transport stall (the delayed-ACK timer is 40 ms).
const STALL_MS: f64 = 35.0;

/// Transport time of an untraced phase: each client round trip minus the
/// reply's own `micros` — the HTTP exchange over a socket, the codec and
/// dispatch around the engine in-process.
pub fn transport_metrics(out: &mut Outcome, phase: &Phase) {
    let transport_ms: Vec<f64> = phase
        .records()
        .filter_map(|r| r.info.map(|i| r.wall_ms - i.micros as f64 / 1e3))
        .collect();
    let stalls = transport_ms.iter().filter(|&&t| t >= STALL_MS).count();
    out.metric(
        "sac_live.http_transport_us",
        mean(&transport_ms) * 1e3,
        "us",
    );
    out.metric(
        "sac_live.http_stall_share",
        stalls as f64 / transport_ms.len().max(1) as f64,
        "share",
    );
}

/// The read-path per-layer metrics every workload reports: service,
/// engine, algorithm, graph, geometry and codec, from an untraced phase of
/// `handle_line` calls and a traced phase whose clients decompose each
/// query into its layer calls ([`crate::query_mix::InProcess`]).  `warms`
/// are the set-ups' `SacEngine::warm` times in microseconds.
pub fn read_layer_metrics(
    out: &mut Outcome,
    untraced: &Phase,
    traced: &Phase,
    trace: &Trace,
    warms: &[f64],
) {
    let handle: Vec<f64> = untraced.records().map(|r| r.wall_ms * 1e3).collect();
    out.metric("sac_live.handle_us", mean(&handle), "us");
    out.metric("sac_engine.warm_us", mean(warms), "us");
    for span in [
        "sac_proto.decode",
        "sac_proto.encode",
        "sac_engine.plan",
        "sac_engine.execute",
        "sac_core.ctx_setup",
        "sac_core.search_theta",
        "sac_core.search_interactive",
        "sac_graph.sweep_begin",
        "sac_graph.probe",
        "sac_geom.mec",
    ] {
        out.metric(format!("{span}_us"), mean(&trace.micros(span)), "us");
    }
    // Only `query_mix` sends balanced queries.
    let balanced = trace.micros("sac_core.search_balanced");
    if !balanced.is_empty() {
        out.extra("sac_core.search_balanced_us", mean(&balanced), "us");
    }
    // Engine self time: execute minus the direct context set-up and search
    // of the same request (the median, since both sides carry the
    // algorithm's own run-to-run noise).
    let execute = trace.per_request(&["sac_engine.execute"]);
    let direct = trace.per_request(&[
        "sac_core.ctx_setup",
        "sac_core.search_theta",
        "sac_core.search_interactive",
        "sac_core.search_balanced",
    ]);
    let own: Vec<f64> = direct
        .iter()
        .filter_map(|(key, d)| Some(execute.get(key)? - d))
        .collect();
    out.metric("sac_engine.self_us", median(&own), "us");
    reply_metrics(out, traced);
}

/// Reports the failure share and writes the spans out.
pub fn finish_trace(out: &mut Outcome, args: &Args, trace: &Trace) {
    out.metric(
        "error_share",
        out.failures.total() as f64 / out.attempted.max(1) as f64,
        "share",
    );
    let path = args
        .out
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match trace.write(&path) {
        Ok(n) => out.note(format!("{n} spans written to {}", path.display())),
        Err(e) => out
            .fatal
            .push(format!("cannot write spans to {}: {e}", path.display())),
    }
}
