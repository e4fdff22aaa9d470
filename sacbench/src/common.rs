//! Inputs, statistics, reply checks and result output shared by every
//! workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_core::SearchContext;
use sac_data::{select_query_vertices, DatasetKind, DatasetSpec};
use sac_geom::{minimum_enclosing_circle, Circle};
use sac_graph::{SpatialGraph, VertexId};
use sac_proto::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Degree constraint of every query (the paper's default).
pub const K: u32 = 4;
/// Seeded query vertices per run, all with core number >= `K`.
pub const QUERY_VERTICES: usize = 1000;
/// Interactive queries in the pre-timing validation set.
pub const VALIDATION_QUERIES: usize = 48;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// A request slower than this counts as failed.  The slowest balanced
/// queries at this scale take several seconds (7.4 s for one vertex of seed
/// 77), and a traced call runs the algorithm twice; the ceiling sits well
/// above both and still flags a pinned worker within one run.
pub const CEILING: Duration = Duration::from_secs(30);

/// The paper-scale Brightkite surrogate (51,406 vertices), generated with the
/// preset's own seed: every run serves the same graph, and the workload seed
/// draws the queries and writes against it.
pub fn dataset() -> SpatialGraph {
    DatasetSpec::scaled(DatasetKind::Brightkite, 1.0).generate()
}

/// Runs `set_up` `SETUP_REPS` times, dropping each stack before building
/// the next, and returns the last stack with every set-up's wall time.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut seconds = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(set_up(rep)?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS is positive"), seconds))
}

/// An independent random stream per (workload seed, purpose).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407),
    )
}

/// The seeded query vertices of a run.
pub fn query_vertices(g: &SpatialGraph, seed: u64) -> Vec<VertexId> {
    select_query_vertices(g.graph(), QUERY_VERTICES, K, &mut rng(seed, 1))
}

/// Latency tier of a query, named as in the metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// θ-SAC query (radius constraint).
    Theta,
    /// `ratio` 2.5 at the interactive tier (dispatched to `app_fast`).
    Interactive,
    /// `ratio` 1.5 (dispatched to `app_acc`).
    Balanced,
}

impl Tier {
    pub const ALL: [Tier; 3] = [Tier::Theta, Tier::Interactive, Tier::Balanced];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Theta => "theta",
            Tier::Interactive => "interactive",
            Tier::Balanced => "balanced",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One protocol request, pre-encoded.
#[derive(Clone, Debug)]
pub struct Request {
    pub id: u64,
    pub q: VertexId,
    pub tier: Tier,
    pub theta: Option<f64>,
    pub body: String,
}

impl Request {
    pub fn new(id: u64, q: VertexId, tier: Tier, theta: Option<f64>) -> Request {
        let body = match (tier, theta) {
            (Tier::Theta, Some(theta)) => {
                format!(r#"{{"id":{id},"q":{q},"k":{K},"theta":{theta}}}"#)
            }
            (Tier::Theta, None) => panic!("a theta request needs a radius"),
            (Tier::Interactive, _) => {
                format!(r#"{{"id":{id},"q":{q},"k":{K},"ratio":2.5,"tier":"interactive"}}"#)
            }
            (Tier::Balanced, _) => format!(r#"{{"id":{id},"q":{q},"k":{K},"ratio":1.5}}"#),
        };
        Request {
            id,
            q,
            tier,
            theta,
            body,
        }
    }
}

/// A closed-loop client's request sequence, stratified so that every
/// stretch of it looks alike: tiers come in blocks holding exactly
/// `weights[t]` requests of each tier in shuffled order, the θ radii of a
/// block cover `theta_range` in equal log-spaced strata (one radius drawn
/// in each), and query vertices walk a seeded permutation of `qs`.  Ids are
/// unique across clients (`client` is folded into the high bits).
pub fn request_stream(
    seed: u64,
    client: u64,
    qs: &[VertexId],
    weights: &[(Tier, u32)],
    theta_range: (f64, f64),
    len: usize,
) -> Vec<Request> {
    let mut r = rng(seed, 100 + client);
    let mut order = qs.to_vec();
    shuffle(&mut order, &mut r);
    let thetas = weights
        .iter()
        .find(|w| w.0 == Tier::Theta)
        .map_or(0, |w| w.1 as usize);
    let (lo, hi) = theta_range;
    let mut requests = Vec::with_capacity(len);
    while requests.len() < len {
        let mut block: Vec<Tier> = weights
            .iter()
            .flat_map(|&(tier, n)| std::iter::repeat_n(tier, n as usize))
            .collect();
        shuffle(&mut block, &mut r);
        let mut strata: Vec<usize> = (0..thetas).collect();
        shuffle(&mut strata, &mut r);
        for tier in block {
            let i = requests.len();
            let theta = (tier == Tier::Theta).then(|| {
                let stratum = strata.pop().expect("one stratum per theta request");
                let u = (stratum as f64 + r.gen_range(0.0..1.0)) / thetas as f64;
                lo * (hi / lo).powf(u)
            });
            let q = order[i % order.len()];
            requests.push(Request::new((client << 32) | i as u64, q, tier, theta));
        }
    }
    requests.truncate(len);
    requests
}

fn shuffle<T>(items: &mut [T], r: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, r.gen_range(0..=i));
    }
}

/// The pre-timing validation set: interactive queries on seeded vertices.
pub fn validation_set(seed: u64, qs: &[VertexId]) -> Vec<Request> {
    let mut r = rng(seed, 2);
    (0..VALIDATION_QUERIES)
        .map(|i| {
            Request::new(
                1 << 40 | i as u64,
                qs[r.gen_range(0..qs.len())],
                Tier::Interactive,
                None,
            )
        })
        .collect()
}

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Failed requests by class.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    classes: BTreeMap<&'static str, u64>,
    first: BTreeMap<&'static str, String>,
}

impl Failures {
    pub fn add(&mut self, class: &'static str, detail: impl Into<String>) {
        *self.classes.entry(class).or_default() += 1;
        self.first.entry(class).or_insert_with(|| detail.into());
    }

    pub fn merge(&mut self, other: Failures) {
        for (class, n) in other.classes {
            *self.classes.entry(class).or_default() += n;
        }
        for (class, detail) in other.first {
            self.first.entry(class).or_insert(detail);
        }
    }

    pub fn total(&self) -> u64 {
        self.classes.values().sum()
    }
}

/// What a check of one reply found wrong: the failure class and a detail.
pub type Failure = (&'static str, String);

/// The fields of a query reply the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplyInfo {
    pub feasible: bool,
    pub size: usize,
    pub radius: f64,
    pub micros: u64,
    pub epoch: u64,
    pub probes: u64,
    pub candidates: u64,
    pub cache_hit: bool,
    /// Length of the reply line.
    pub bytes: usize,
}

/// Cheap per-reply check: `ok`, the echoed `id`/`q`/`k`, and the reply's
/// shape, with a member list on feasible replies exactly when `listed`.
/// The member list is counted, not parsed, so the check stays small next to
/// the request it checks.
pub fn check_reply(line: &str, req: &Request, listed: bool) -> Result<ReplyInfo, Failure> {
    let bad = |what: &str| ("invalid_reply", format!("{what}: {}", clip(line)));
    // Members hold only digits and commas, so the markers around them are
    // unambiguous.
    let (head, tail, members) = match line.find(r#","members":["#) {
        Some(at) => {
            let open = at + r#","members":["#.len();
            let close = open
                + line[open..]
                    .find(']')
                    .ok_or_else(|| bad("unterminated members"))?;
            let list = &line[open..close];
            let count = if list.is_empty() {
                0
            } else {
                list.bytes().filter(|&b| b == b',').count() + 1
            };
            let head =
                Json::parse(&format!("{}}}", &line[..at])).map_err(|e| bad(&e.to_string()))?;
            let rest = line[close + 1..]
                .strip_prefix(',')
                .ok_or_else(|| bad("bad members end"))?;
            let tail = Json::parse(&format!("{{{rest}")).map_err(|e| bad(&e.to_string()))?;
            (head, Some(tail), Some(count))
        }
        None => (
            Json::parse(line).map_err(|e| bad(&e.to_string()))?,
            None,
            None,
        ),
    };
    let field = |key: &str| {
        head.get(key)
            .or_else(|| tail.as_ref().and_then(|t| t.get(key)))
    };
    if field("ok").and_then(Json::as_bool) != Some(true) {
        return Err(("not_ok", clip(line)));
    }
    if field("id").and_then(Json::as_u64) != Some(req.id)
        || field("q").and_then(Json::as_u64) != Some(req.q as u64)
        || field("k").and_then(Json::as_u64) != Some(K as u64)
    {
        return Err(bad("id/q/k not echoed"));
    }
    if field("plan").and_then(Json::as_str).is_none() {
        return Err(bad("no plan"));
    }
    let feasible = field("feasible")
        .and_then(Json::as_bool)
        .ok_or_else(|| bad("no feasible flag"))?;
    let mut info = ReplyInfo {
        feasible,
        micros: field("micros")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("no micros"))?,
        epoch: field("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("no epoch"))?,
        probes: field("probes")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("no probes"))?,
        candidates: field("candidates")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("no candidates"))?,
        cache_hit: field("cache_hit")
            .and_then(Json::as_bool)
            .ok_or_else(|| bad("no cache_hit"))?,
        bytes: line.len(),
        ..ReplyInfo::default()
    };
    if feasible {
        info.size = field("size")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("no size"))? as usize;
        info.radius = head
            .get("radius")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no radius"))?;
        let center = head
            .get("center")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        if info.size == 0 || !info.radius.is_finite() || info.radius < 0.0 || center != 2 {
            return Err(bad("malformed community"));
        }
        if listed && members != Some(info.size) {
            return Err(bad("member count differs from size"));
        }
        if !listed && members.is_some() {
            return Err(bad("members on a reply that should omit them"));
        }
    } else if members.is_some() {
        return Err(bad("members on an infeasible reply"));
    }
    Ok(info)
}

fn clip(line: &str) -> String {
    line.chars().take(160).collect()
}

/// Deep check of one reply against the snapshot it was served from:
/// `q` is a member, the members induce a connected subgraph of minimum
/// degree >= `K`, θ answers lie within θ of `q` and equal the from-scratch
/// reference, and the reported radius is the members' minimum enclosing
/// circle.  Returns the radius of a feasible answer.
pub fn deep_check(g: &SpatialGraph, req: &Request, line: &str) -> Result<Option<f64>, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let feasible = doc
        .get("feasible")
        .and_then(Json::as_bool)
        .ok_or("no feasible flag")?;
    let members: Option<Vec<VertexId>> = doc.get("members").and_then(Json::as_array).map(|m| {
        m.iter()
            .map(|v| v.as_u64().unwrap_or(u64::MAX) as VertexId)
            .collect()
    });
    if let Some(theta) = req.theta {
        let mut ctx = SearchContext::new(g, req.q, K).map_err(|e| e.to_string())?;
        let mut reference = ctx.feasible_in_circle(&Circle::new(g.position(req.q), theta), None);
        if let Some(r) = reference.as_mut() {
            r.sort_unstable();
        }
        if reference.is_some() != feasible || (feasible && reference != members) {
            return Err(format!(
                "theta answer differs from the reference (q={} theta={theta})",
                req.q
            ));
        }
    }
    if !feasible {
        return Ok(None);
    }
    let members = members.ok_or("feasible reply without members")?;
    let n = g.num_vertices();
    let mut inside = vec![false; n];
    for &v in &members {
        if (v as usize) >= n || inside[v as usize] {
            return Err(format!("member {v} out of range or repeated"));
        }
        inside[v as usize] = true;
    }
    if !inside[req.q as usize] {
        return Err(format!("q={} is not a member", req.q));
    }
    for &v in &members {
        let degree = g
            .neighbors(v)
            .iter()
            .filter(|&&u| inside[u as usize])
            .count();
        if degree < K as usize {
            return Err(format!("member {v} has internal degree {degree} < {K}"));
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![req.q];
    seen[req.q as usize] = true;
    let mut reached = 1;
    while let Some(v) = stack.pop() {
        for &u in g.neighbors(v) {
            if inside[u as usize] && !seen[u as usize] {
                seen[u as usize] = true;
                reached += 1;
                stack.push(u);
            }
        }
    }
    if reached != members.len() {
        return Err(format!(
            "members not connected ({reached} of {} reached)",
            members.len()
        ));
    }
    if let Some(theta) = req.theta {
        let far = members
            .iter()
            .map(|&v| g.distance(req.q, v))
            .fold(0.0, f64::max);
        if far > theta * (1.0 + 1e-12) + 1e-12 {
            return Err(format!("member at {far} outside theta {theta}"));
        }
    }
    let radius = doc
        .get("radius")
        .and_then(Json::as_f64)
        .ok_or("no radius")?;
    let mcc = minimum_enclosing_circle(&g.positions_of(&members)).map_err(|e| e.to_string())?;
    if (mcc.radius - radius).abs() > 1e-9 * mcc.radius.max(1.0) {
        return Err(format!(
            "radius {radius} differs from the members' MEC {}",
            mcc.radius
        ));
    }
    Ok(Some(radius))
}

/// Peak resident set size of a process (`None` = this one), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    /// Checks that failed outside any single request (e.g. the server died).
    pub fatal: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A figure only this workload measures: printed as a note, since the
    /// result line carries exactly the metrics every workload reports.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.note(format!("extra {name} = {value} {unit}"));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a latency series as `<prefix>_p50_ms` and `<prefix>_tail_ms`
    /// (the tail at the fixed percentile `tail_p`, chosen so that a run on
    /// the reference machine leaves at least ten samples beyond it).
    pub fn latency(&mut self, prefix: &str, samples_ms: &[f64], tail_p: f64) {
        let beyond = samples_ms.len() as f64 * (1.0 - tail_p / 100.0);
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.2}", percentile(samples_ms, d as f64 * 10.0)))
            .collect();
        self.note(format!(
            "{prefix}: {} samples, p50 {:.3} ms, tail = p{tail_p} {:.3} ms ({beyond:.0} samples beyond){}; deciles {}; max {:.2}",
            samples_ms.len(),
            median(samples_ms),
            percentile(samples_ms, tail_p),
            if beyond < 10.0 { "  WARNING: fewer than 10 samples beyond the tail" } else { "" },
            deciles.join(" "),
            percentile(samples_ms, 100.0)
        ));
        self.metric(format!("{prefix}_p50_ms"), median(samples_ms), "ms");
        self.metric(
            format!("{prefix}_tail_ms"),
            percentile(samples_ms, tail_p),
            "ms",
        );
    }

    /// Records `setup_s`, the median of the run's set-ups.
    pub fn setup(&mut self, seconds: &[f64]) {
        let each: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
        self.note(format!("set-ups (s): {}", each.join(" ")));
        self.metric("setup_s", median(seconds), "s");
    }

    pub fn correct(&self) -> bool {
        self.failures.total() == 0
            && self.fatal.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the notes, the failure breakdown and, last, the result line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        let failed = self.failures.total();
        if failed > 0 {
            println!(
                "# error_share {:.6} = {failed} failed / {} attempted",
                failed as f64 / self.attempted.max(1) as f64,
                self.attempted
            );
            for (class, n) in &self.failures.classes {
                println!(
                    "#   {class}: {n} ({:.6}), first: {}",
                    *n as f64 / self.attempted.max(1) as f64,
                    self.failures.first[class]
                );
            }
        }
        for fatal in &self.fatal {
            println!("# FATAL: {fatal}");
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                println!("# metric {} is not a finite number", m.name);
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            failed,
            metrics.join(",")
        );
    }
}

/// A JSON number with every digit of the `f64` (`Display` prints the
/// shortest round-trip decimal and never an exponent).
fn json_number(v: f64) -> String {
    format!("{v}")
}
