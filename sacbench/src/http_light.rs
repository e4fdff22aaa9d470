//! `http_light`: cheap small-θ queries, with an interactive query among
//! them now and then, against a `sac-http` subprocess on loopback, over two
//! keep-alive connections in closed loops.  The transport and the codec
//! dominate; the algorithms barely register.
//!
//! The server omits member lists (`--no-members`), so every reply is small
//! and meets the transport the same way: with members, whether a large
//! interactive reply waited for the client's delayed ACK changed from run
//! to run and moved its median by half.  Answers are checked against an
//! in-process service on the same graph instead.

use crate::common::{
    dataset, deep_check, peak_rss_mb, query_vertices, request_stream, set_up_repeatedly,
    validation_set, Failure, Outcome, Request, Tier, CEILING, K,
};
use crate::query_mix::{self, InProcess};
use crate::runner::{
    closed_loop, finish_trace, overhead_ratio, read_layer_metrics, transport_metrics, validate,
    Client, Reply,
};
use crate::trace::Tracer;
use crate::Args;
use sac_graph::io::{write_edge_list, write_locations};
use sac_graph::SpatialGraph;
use sac_live::SacService;
use sac_proto::json::Json;
use sac_proto::ProtoRequest;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keep-alive connections, one closed loop each.
const CLIENTS: u64 = 2;
/// Small radii: a few hundred vertices per circle, well under a millisecond
/// of service time.
const THETA_RANGE: (f64, f64) = (0.01, 0.1);
/// Mostly small θ, and an interactive query (about 30 ms of service time)
/// now and then.
const WEIGHTS: [(Tier, u32); 2] = [(Tier::Theta, 8), (Tier::Interactive, 1)];
const THETA_TAIL: f64 = 99.0;
const INTERACTIVE_TAIL: f64 = 90.0;
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A `sac-http` child process, killed and reaped when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One keep-alive HTTP/1.1 connection.  `TCP_NODELAY` is set on this side
/// only, and every request leaves in a single write.
struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    fn connect(addr: &str) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CEILING))?;
        stream.set_write_timeout(Some(CEILING))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { stream, reader })
    }

    /// Sends one request and reads the status code and body.
    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: sacbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let invalid =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = None;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0u8; length.ok_or_else(|| invalid("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
        Ok((status, body))
    }

    fn post(&mut self, body: &str) -> Result<String, Failure> {
        match self.send("POST", "/api", body) {
            Err(e) => Err(("transport", e.to_string())),
            Ok((200, reply)) => Ok(reply),
            Ok((status, reply)) => Err(("http_status", format!("{status}: {reply}"))),
        }
    }
}

/// A query client over one connection.  `reference` answers the same
/// requests in-process for the deep checks.
struct ApiClient {
    http: HttpClient,
    reference: Arc<SacService>,
}

impl ApiClient {
    fn connect(addr: &str, reference: &Arc<SacService>) -> Result<ApiClient, String> {
        Ok(ApiClient {
            http: HttpClient::connect(addr).map_err(|e| e.to_string())?,
            reference: Arc::clone(reference),
        })
    }
}

/// The answer fields a reply without members carries.
fn answer(line: &str) -> Result<[Option<String>; 4], String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    Ok(["feasible", "size", "radius", "center"].map(|key| doc.get(key).map(|v| v.to_string())))
}

impl Client for ApiClient {
    fn call(
        &mut self,
        req: &Request,
        trace: Option<(&mut Tracer, usize)>,
    ) -> Result<Reply, Failure> {
        let line = match trace {
            None => self.http.post(&req.body)?,
            Some((tr, root)) => {
                // The server decodes these same bytes; time that codec here.
                tr.time("sac_proto.decode", Some(root), req.id, || {
                    ProtoRequest::parse_line(&req.body)
                })
                .map_err(|e| ("invalid_reply", e.to_string()))?;
                tr.time("sac_live.http", Some(root), req.id, || {
                    self.http.post(&req.body)
                })?
            }
        };
        Ok(Reply {
            line,
            snapshot: None,
        })
    }

    fn members(&self) -> bool {
        false
    }

    /// The in-process answer to the same request is deep-checked, and the
    /// served one must equal it field for field.
    fn deep_check(
        &mut self,
        g: &SpatialGraph,
        req: &Request,
        line: &str,
    ) -> Result<Option<f64>, String> {
        let local = self
            .reference
            .handle_line(&req.body)
            .ok_or("no in-process reply")?;
        let radius = deep_check(g, req, &local)?;
        if answer(line)? != answer(&local)? {
            return Err(format!(
                "served answer differs from the in-process one: {}",
                line.chars().take(160).collect::<String>()
            ));
        }
        Ok(radius)
    }
}

fn healthy(addr: &str) -> bool {
    HttpClient::connect(addr)
        .and_then(|mut c| c.send("GET", "/healthz", ""))
        .is_ok_and(|(status, _)| status == 200)
}

/// Boots `sac-http` on a free loopback port and waits until `/healthz`
/// answers.  A server that exits while booting (a port taken in between)
/// is retried on another port.
fn boot(bin: &Path, dir: &Path) -> Result<Server, String> {
    let log = dir.join("server.log");
    for _ in 0..5 {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let stderr = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .arg("--edges")
            .arg(dir.join("edges.txt"))
            .arg("--locations")
            .arg(dir.join("locations.txt"))
            .args(["--addr", &addr, "--warm", &K.to_string(), "--threads", "2"])
            .arg("--no-members")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server { child, addr };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            if server
                .child
                .try_wait()
                .map_err(|e| e.to_string())?
                .is_some()
            {
                break;
            }
            if healthy(&server.addr) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("sac-http did not answer /healthz in time".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let log = std::fs::read_to_string(&log).unwrap_or_default();
    Err(format!("sac-http kept exiting while booting: {log}"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .server_bin
        .as_deref()
        .ok_or("http_light needs --server-bin")?;
    let dir = args.out.join(format!("http-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let result = measure(args, bin, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(args: &Args, bin: &Path, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((mut server, g), setups) = set_up_repeatedly(|_| {
        let g = dataset();
        write_edge_list(g.graph(), dir.join("edges.txt")).map_err(|e| e.to_string())?;
        write_locations(g.positions(), dir.join("locations.txt")).map_err(|e| e.to_string())?;
        Ok((boot(bin, dir)?, g))
    })?;
    let qs = query_vertices(&g, args.seed);
    // The benchmark's own in-process service on the same graph: the deep
    // checks' reference, and the traced run's in-process replay.
    let (reference, warm_us) = query_mix::set_up(g.clone());
    let radius = validate(
        &mut out,
        &g,
        &validation_set(args.seed, &qs),
        &mut ApiClient::connect(&server.addr, &reference)?,
    );
    let streams: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| request_stream(args.seed, c, &qs, &WEIGHTS, THETA_RANGE, 20_000))
        .collect();
    let connect = || -> Result<Vec<ApiClient>, String> {
        (0..CLIENTS)
            .map(|_| ApiClient::connect(&server.addr, &reference))
            .collect()
    };
    let origin = Instant::now();
    // The traced run splits its time in four: the HTTP streams untraced and
    // traced, then the same streams untraced and traced through an
    // in-process service on the same graph, which attributes the server's
    // share to its layers.
    let span = if args.trace {
        args.seconds / 4
    } else {
        args.seconds
    };
    let mut phases = vec![closed_loop(
        connect()?,
        &streams,
        span,
        false,
        origin,
        Some(&g),
    )];
    if args.trace {
        phases.push(closed_loop(
            connect()?,
            &streams,
            span,
            true,
            origin,
            Some(&g),
        ));
    }
    let rss = peak_rss_mb(Some(server.child.id()));
    if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
        out.fatal
            .push(format!("sac-http exited during the run: {status}"));
    }
    for phase in &phases {
        out.attempted += phase.attempted();
        out.failures.merge(phase.failures());
    }
    let http = &phases[0];
    if !args.trace {
        let interactive = http.latencies_ms(Tier::Interactive);
        out.setup(&setups);
        out.metric("mcc_radius_mean", radius, "coord");
        out.latency("theta", &http.latencies_ms(Tier::Theta), THETA_TAIL);
        out.latency("interactive", &interactive, INTERACTIVE_TAIL);
        // The heaviest request class here is the interactive one.
        out.latency("heavy", &interactive, INTERACTIVE_TAIL);
        out.metric(
            "query_qps",
            http.completed() as f64 / http.elapsed.as_secs_f64(),
            "1/s",
        );
        out.metric("peak_rss_mb", rss, "MB");
        out.note(format!("{} replies deep-checked", http.deep_checked()));
        return Ok(out);
    }
    drop(server);
    transport_metrics(&mut out, http);
    let traced_http = &phases[1];
    let trace = traced_http.trace.as_ref().expect("traced phase records spans");
    out.metric("trace.covered_share", trace.covered_share(), "share");
    out.metric(
        "trace.overhead_ratio",
        overhead_ratio(http, traced_http),
        "ratio",
    );
    let clients = || {
        (0..CLIENTS)
            .map(|_| InProcess::new(&reference, false))
            .collect::<Vec<_>>()
    };
    let untraced = closed_loop(clients(), &streams, span, false, origin, Some(&g));
    let traced = closed_loop(clients(), &streams, span, true, origin, Some(&g));
    for phase in [&untraced, &traced] {
        out.attempted += phase.attempted();
        out.failures.merge(phase.failures());
    }
    let local = traced.trace.as_ref().expect("traced phase records spans");
    read_layer_metrics(&mut out, &untraced, &traced, local, &[warm_us]);
    let path = args
        .out
        .join(format!("trace-{}-in-process-seed{}.jsonl", args.workload, args.seed));
    match local.write(&path) {
        Ok(n) => out.note(format!("{n} in-process spans written to {}", path.display())),
        Err(e) => out
            .fatal
            .push(format!("cannot write spans to {}: {e}", path.display())),
    }
    finish_trace(&mut out, args, trace);
    Ok(out)
}
