//! `query_mix`: three latency tiers through `SacService::handle_line`, the
//! entry point both transports call, from two closed-loop client threads.
//! The algorithm, graph and geometry layers do nearly all the work; no
//! sockets are involved.

use crate::common::{
    dataset, peak_rss_mb, query_vertices, request_stream, set_up_repeatedly, validation_set,
    Failure, Outcome, Request, Tier, K,
};
use crate::runner::{
    closed_loop, finish_trace, overhead_ratio, read_layer_metrics, traced_split,
    transport_metrics, validate, Client, Reply,
};
use crate::trace::Tracer;
use crate::Args;
use sac_core::SearchContext;
use sac_engine::{Plan, SacEngine};
use sac_geom::minimum_enclosing_circle;
use sac_graph::SpatialGraph;
use sac_live::{LiveEngine, SacService, ServiceConfig};
use sac_proto::{ProtoRequest, ProtoResponse, QueryReply};
use std::sync::Arc;
use std::time::Instant;

/// Client threads (the machine has two cores).
const CLIENTS: u64 = 2;
/// Tier weights of each client's stream, chosen so every tier collects
/// enough samples for its tail percentile in a run.
const WEIGHTS: [(Tier, u32); 3] = [
    (Tier::Theta, 30),
    (Tier::Interactive, 5),
    (Tier::Balanced, 1),
];
/// θ radii are drawn log-uniformly from this range.
pub const THETA_RANGE: (f64, f64) = (0.01, 1.0);
/// Tail percentile per tier: the highest standard percentile that leaves at
/// least ten samples beyond it at this workload's sample counts.
const TAIL: [f64; 3] = [99.0, 95.0, 75.0];
/// Bisection probes the traced run issues on each direct sweep.
const SWEEP_PROBES: usize = 6;

/// A client calling the service in-process.  Traced calls decompose the
/// service's query path into its layer calls and then repeat the algorithm
/// directly on the same snapshot.
pub struct InProcess {
    pub service: Arc<SacService>,
    pub engine: Arc<SacEngine>,
    /// A writer commits while this client reads (`checkin_writes`): each
    /// untraced reply carries the snapshot that served it when no commit
    /// landed during the call, so deep checks see the right epoch.
    pub under_writes: bool,
}

impl Client for InProcess {
    fn call(
        &mut self,
        req: &Request,
        trace: Option<(&mut Tracer, usize)>,
    ) -> Result<Reply, Failure> {
        match trace {
            Some((tr, root)) => self.traced(req, tr, root),
            None if self.under_writes => {
                let before = self.engine.epoch();
                let snapshot = self.engine.snapshot();
                let loaded = self.engine.epoch();
                let line = self.handle(req)?;
                let stable = before == loaded && loaded == self.engine.epoch();
                Ok(Reply {
                    line,
                    snapshot: stable.then_some(snapshot),
                })
            }
            None => Ok(Reply {
                line: self.handle(req)?,
                snapshot: None,
            }),
        }
    }
}

impl InProcess {
    pub fn new(service: &Arc<SacService>, under_writes: bool) -> InProcess {
        InProcess {
            service: Arc::clone(service),
            engine: service.engine(),
            under_writes,
        }
    }

    fn handle(&self, req: &Request) -> Result<String, Failure> {
        self.service
            .handle_line(&req.body)
            .ok_or(("not_ok", format!("no reply to {}", req.body)))
    }

    fn traced(&self, req: &Request, tr: &mut Tracer, root: usize) -> Result<Reply, Failure> {
        let id = req.id;
        let parent = Some(root);
        let encode = self.service.encode_options();
        let spec = match tr.time("sac_proto.decode", parent, id, || {
            ProtoRequest::parse_line(&req.body)
        }) {
            Ok(ProtoRequest::Query(spec)) => spec,
            other => return Err(("invalid_reply", format!("decoded {other:?}"))),
        };
        let request = spec.to_request(id).map_err(|e| ("not_ok", e.to_string()))?;
        let plan = tr.time("sac_engine.plan", parent, id, || {
            self.engine.plan_for(&request)
        });
        let response = tr.time("sac_engine.execute", parent, id, || {
            self.engine.execute(&request)
        });
        let reply = ProtoResponse::Query(QueryReply::from_response(&response, encode));
        let line = tr.time("sac_proto.encode", parent, id, || reply.encode_line(encode));
        let Ok(Plan::Execute(planned)) = plan else {
            return Ok(Reply {
                line,
                snapshot: None,
            });
        };
        // The same request again, straight into the algorithm layer, on a
        // snapshot and decomposition of one epoch (a writer may publish in
        // between).
        let (snapshot, decomposition) = loop {
            let epoch = self.engine.epoch();
            let snapshot = self.engine.snapshot();
            let decomposition = self.engine.decomposition();
            if self.engine.epoch() == epoch {
                break (snapshot, decomposition);
            }
        };
        let g = &*snapshot;
        let mut ctx = tr
            .time("sac_core.ctx_setup", parent, id, || {
                SearchContext::with_decomposition(g, req.q, K, Arc::clone(&decomposition))
            })
            .map_err(|e| ("not_ok", e.to_string()))?;
        let search = match req.tier {
            Tier::Theta => "sac_core.search_theta",
            Tier::Interactive => "sac_core.search_interactive",
            Tier::Balanced => "sac_core.search_balanced",
        };
        let outcome = tr
            .time(search, parent, id, || {
                self.engine
                    .registry()
                    .run(planned.algorithm, &mut ctx, &planned.query)
            })
            .map_err(|e| ("not_ok", e.to_string()))?;
        // One q-centred sweep as the sweep-based algorithms start: up to θ,
        // or up to the farthest vertex of q's connected k-core, then a
        // bisection of probes toward the feasibility frontier.
        let mut sweep = SearchContext::with_decomposition(g, req.q, K, decomposition)
            .map_err(|e| ("not_ok", e.to_string()))?;
        let center = g.position(req.q);
        let r_max = match req.theta {
            Some(theta) => theta,
            None => sweep.global_kcore_of_q().map_or(0.0, |core| {
                core.iter()
                    .map(|&v| g.position(v).distance(center))
                    .fold(0.0, f64::max)
            }),
        };
        tr.time("sac_graph.sweep_begin", parent, id, || {
            sweep.begin_sweep(center, r_max, None)
        });
        if req.theta.is_some() {
            tr.time("sac_graph.probe", parent, id, || sweep.probe(r_max));
        } else {
            let (mut lo, mut hi) = (0.0, r_max);
            for _ in 0..SWEEP_PROBES {
                let mid = (lo + hi) / 2.0;
                if tr
                    .time("sac_graph.probe", parent, id, || sweep.probe(mid))
                    .is_some()
                {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
        if let Some(community) = outcome.community {
            let positions = g.positions_of(community.members());
            tr.time("sac_geom.mec", parent, id, || {
                minimum_enclosing_circle(&positions)
            })
            .map_err(|e| ("not_ok", e.to_string()))?;
        }
        Ok(Reply {
            line,
            snapshot: None,
        })
    }
}

/// Builds the serving stack over `g`: engine build, warm-up and service.
/// Returns the service and the warm-up time in microseconds.
pub fn set_up(g: SpatialGraph) -> (Arc<SacService>, f64) {
    let engine = Arc::new(SacEngine::new(g));
    let warm = Instant::now();
    engine.warm(&[K]);
    let warm_us = warm.elapsed().as_secs_f64() * 1e6;
    let service = SacService::with_live(LiveEngine::new(engine), ServiceConfig::default());
    (Arc::new(service), warm_us)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut warms = Vec::new();
    let (service, setups) = set_up_repeatedly(|_| {
        let (service, warm_us) = set_up(dataset());
        warms.push(warm_us);
        Ok(service)
    })?;
    let engine = service.engine();
    let snapshot = engine.snapshot();
    let qs = query_vertices(&snapshot, args.seed);
    let radius = validate(
        &mut out,
        &snapshot,
        &validation_set(args.seed, &qs),
        &mut InProcess::new(&service, false),
    );
    let streams: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| request_stream(args.seed, c, &qs, &WEIGHTS, THETA_RANGE, 50_000))
        .collect();
    let clients = || {
        (0..CLIENTS)
            .map(|_| InProcess::new(&service, false))
            .collect::<Vec<_>>()
    };
    let origin = Instant::now();
    if !args.trace {
        let phase = closed_loop(
            clients(),
            &streams,
            args.seconds,
            false,
            origin,
            Some(&snapshot),
        );
        out.attempted += phase.attempted();
        out.failures.merge(phase.failures());
        out.setup(&setups);
        out.metric("mcc_radius_mean", radius, "coord");
        for tier in Tier::ALL {
            let name = match tier {
                // The workload's heaviest request class.
                Tier::Balanced => "heavy",
                tier => tier.name(),
            };
            out.latency(name, &phase.latencies_ms(tier), TAIL[tier.index()]);
        }
        out.metric(
            "query_qps",
            phase.completed() as f64 / phase.elapsed.as_secs_f64(),
            "1/s",
        );
        out.metric("peak_rss_mb", peak_rss_mb(None), "MB");
        out.note(format!("{} replies deep-checked", phase.deep_checked()));
        return Ok(out);
    }
    let (first, second) = traced_split(args.seconds);
    let untraced = closed_loop(clients(), &streams, first, false, origin, Some(&snapshot));
    let traced = closed_loop(clients(), &streams, second, true, origin, Some(&snapshot));
    for phase in [&untraced, &traced] {
        out.attempted += phase.attempted();
        out.failures.merge(phase.failures());
    }
    let trace = traced.trace.as_ref().expect("traced phase records spans");
    read_layer_metrics(&mut out, &untraced, &traced, trace, &warms);
    transport_metrics(&mut out, &untraced);
    out.metric("trace.covered_share", trace.covered_share(), "share");
    out.metric(
        "trace.overhead_ratio",
        overhead_ratio(&untraced, &traced),
        "ratio",
    );
    finish_trace(&mut out, args, trace);
    Ok(out)
}
