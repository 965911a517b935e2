//! `rastor` — the cluster CLI: stand up a socket-backed deployment and
//! operate it from another terminal.
//!
//! ```text
//! rastor serve [--t N] [--shards N] [--handles N] [--fast-reads]
//!              [--chaos] [--wal DIR] [--jitter-us N] [--slow-us N]
//!              [--no-trace] [--file PATH]
//! rastor status [--file PATH]
//! rastor metrics [--json] [--file PATH]
//! rastor watch [--interval SECS] [--once] [--file PATH]
//! rastor trace [--json] [--file PATH]
//! rastor restart-object --shard S --object O [--file PATH]
//! rastor partition-toggle --shard S on|off [--file PATH]
//! rastor bench [--ops N] [--depth N] [--put-pct N] [--keys N]
//!              [--threads N] [--file PATH]
//! rastor manifest
//! ```
//!
//! `serve` writes a `rastor-cluster/v1` cluster file (default
//! `rastor-cluster.json`) describing where everything listens; every
//! other subcommand reads it back, so the only coordination between
//! terminals is that one file. See `docs/OPERATIONS.md` for the
//! handbook.
//!
//! Exit codes: 0 success, 1 operation failed (refused admin command,
//! unreachable cluster), 2 usage error.

use rastor::common::{Result, Value};
use rastor::core::msg::{Rep, Req};
use rastor::exp::Summary;
use rastor::kv::workload::{self, Mix};
use rastor::kv::{ShardedKvStore, StoreConfig};
use rastor::net::client::NetCluster;
use rastor::net::deploy::NetKv;
use rastor::net::wire::AdminCmd;
use rastor::net::{ChaosCfg, ControlClient, OpsServer};
use rastor::obs::{flat_counters, names, Registry};
use rastor::sim::runtime::Transport;
use rastor::store::InMemory;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const USAGE: &str =
    "usage: rastor <serve|status|metrics|watch|trace|restart-object|partition-toggle|bench|manifest> [flags]
  serve             stand up a cluster and write its cluster file
    --t N             per-shard fault budget (default 1; 3t+1 objects/shard)
    --shards N        shard count (default 2)
    --handles N       client handle pool size (default 4)
    --fast-reads      serve gets through the adaptive 2-round fast path
    --chaos           front every shard with a chaos proxy (partitionable)
    --wal DIR         wal-backed durability rooted at DIR (enables restart-object)
    --jitter-us N     per-envelope service delay at every object, microseconds
    --slow-us N       slow-op capture threshold, microseconds (default 10000)
    --trace-sample N  trace one op in N (default 8; 1 traces everything)
    --no-trace        disable the span recorder (tracing is on by default)
  status            per-shard object + read-path report from a live cluster
  metrics           readable metrics report (histograms as p50/p95/p99)
    --json            dump the raw rastor-metrics/v1 document instead
  watch             live per-minute throughput/latency sparkline from the rings
    --interval SECS   refresh period (default 2)
    --once            print one frame and exit (for scripts and CI)
  trace             dump captured slow-op traces from a live cluster
    --json            dump the raw rastor-traces/v1 document instead
  restart-object    kill one object and recover it from disk
    --shard S --object O
  partition-toggle  cut or heal one shard's chaos-proxied link
    --shard S on|off
  bench             drive a workload from this process, report counts back
    --ops N           operations per thread (default 200)
    --depth N         ops in flight per handle (default 8)
    --put-pct N       percentage of puts (default 10)
    --keys N          key-space size (default 32)
    --threads N       client threads (default 4)
    --trace-sample N  mint trace ids for one op in N (default 0 = untraced;
                      traced ops get server-side spans captured at the cluster)
  manifest          print the exported-metric manifest
  (all cluster-facing subcommands accept --file PATH; default rastor-cluster.json)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let run = match cmd.as_str() {
        "manifest" => {
            return match parse_flags(&args[1..], &MANIFEST) {
                Ok(_) => {
                    print!("{}", rastor::obs::manifest_json());
                    ExitCode::SUCCESS
                }
                Err(e) => usage_err(e),
            };
        }
        "serve" => cmd_serve(&args[1..]),
        "status" => cmd_status(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "restart-object" => cmd_admin(&args[1..], &RESTART_OBJECT, AdminVerb::Restart),
        "partition-toggle" => cmd_admin(&args[1..], &PARTITION_TOGGLE, AdminVerb::Partition),
        "bench" => cmd_bench(&args[1..]),
        _ => {
            eprintln!("rastor: unknown subcommand {cmd:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rastor {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Flag parsing: tiny, by hand — the flag set is small and fixed.

struct Flags {
    pairs: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

/// What one subcommand's command line may hold; anything else on it is a
/// usage error.
struct Takes {
    /// Flags followed by a value.
    valued: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
    /// Trailing words that are not flags.
    positionals: usize,
}

const SERVE: Takes = Takes {
    valued: &[
        "t",
        "shards",
        "handles",
        "wal",
        "jitter-us",
        "slow-us",
        "trace-sample",
        "file",
    ],
    switches: &["fast-reads", "chaos", "no-trace"],
    positionals: 0,
};
const STATUS: Takes = Takes {
    valued: &["file"],
    switches: &[],
    positionals: 0,
};
const METRICS: Takes = Takes {
    valued: &["file"],
    switches: &["json"],
    positionals: 0,
};
const WATCH: Takes = Takes {
    valued: &["interval", "file"],
    switches: &["once"],
    positionals: 0,
};
const TRACE: Takes = METRICS;
const RESTART_OBJECT: Takes = Takes {
    valued: &["shard", "object", "file"],
    switches: &[],
    positionals: 0,
};
const PARTITION_TOGGLE: Takes = Takes {
    valued: &["shard", "file"],
    switches: &[],
    positionals: 1,
};
const BENCH: Takes = Takes {
    valued: &[
        "ops",
        "depth",
        "put-pct",
        "keys",
        "threads",
        "trace-sample",
        "file",
    ],
    switches: &[],
    positionals: 0,
};
const MANIFEST: Takes = Takes {
    valued: &[],
    switches: &[],
    positionals: 0,
};

fn parse_flags(args: &[String], takes: &Takes) -> std::result::Result<Flags, String> {
    let mut pairs = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if takes.valued.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                pairs.push((name.to_string(), Some(v.clone())));
            } else if takes.switches.contains(&name) {
                pairs.push((name.to_string(), None));
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else if positional.len() < takes.positionals {
            positional.push(a.clone());
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(Flags { pairs, positional })
}

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn num(&self, name: &str, default: u64) -> std::result::Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a number, got {v:?}")),
        }
    }

    /// A count that must be at least 1 and fit `T`.
    fn positive<T: TryFrom<u64>>(
        &self,
        name: &str,
        default: u64,
    ) -> std::result::Result<T, String> {
        match self.num(name, default)? {
            0 => Err(format!("--{name} must be at least 1")),
            n => T::try_from(n).map_err(|_| format!("--{name} {n} is out of range")),
        }
    }

    fn required_num(&self, name: &str) -> std::result::Result<u64, String> {
        let v = self
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))?;
        v.parse()
            .map_err(|_| format!("--{name} wants a number, got {v:?}"))
    }

    fn file(&self) -> &str {
        self.get("file").unwrap_or("rastor-cluster.json")
    }
}

fn usage_err(detail: String) -> ExitCode {
    eprintln!("rastor: {detail}\n{USAGE}");
    ExitCode::from(2)
}

// ---------------------------------------------------------------------------
// The cluster file: `rastor-cluster/v1`, line-disciplined JSON so both
// halves of the CLI (and humans, and scripts) can read it without a JSON
// parser — the same discipline as `rastor-metrics/v1`.

struct ClusterFile {
    t: usize,
    handles: u32,
    fast_reads: bool,
    ops: SocketAddr,
    /// Per shard: (control addr — always the server, bypassing chaos;
    /// data addr — the proxy when one fronts the shard).
    shards: Vec<(SocketAddr, SocketAddr)>,
}

fn render_cluster_file(c: &ClusterFile) -> String {
    let mut out = String::from("{\n\"schema\": \"rastor-cluster/v1\",\n");
    let _ = writeln!(out, "\"t\": {},", c.t);
    let _ = writeln!(out, "\"handles\": {},", c.handles);
    let _ = writeln!(out, "\"fast_reads\": {},", c.fast_reads);
    let _ = writeln!(out, "\"ops\": \"{}\",", c.ops);
    out.push_str("\"shards\": [\n");
    for (s, (control, data)) in c.shards.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"shard\": {s}, \"control\": \"{control}\", \"data\": \"{data}\"}}{}",
            if s + 1 == c.shards.len() { "" } else { "," }
        );
    }
    out.push_str("]\n}\n");
    out
}

/// Pull `"key": value` off a line (value ends at `,` / `}` / EOL).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    let rest = rest.trim_start();
    let end = rest
        .char_indices()
        .find(|(_, c)| matches!(c, ',' | '}'))
        .map_or(rest.len(), |(i, _)| i);
    Some(rest[..end].trim())
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

fn parse_addr(s: &str, what: &str) -> std::result::Result<SocketAddr, String> {
    s.parse()
        .map_err(|_| format!("cluster file: bad {what} address {s:?}"))
}

fn parse_cluster_file(path: &str) -> std::result::Result<ClusterFile, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| {
        format!("cannot read cluster file {path}: {e} (is a `rastor serve` running here?)")
    })?;
    let mut t = None;
    let mut handles = None;
    let mut fast_reads = None;
    let mut ops = None;
    let mut shards = Vec::new();
    for line in doc.lines() {
        let line = line.trim();
        if line.contains("\"schema\":") {
            let schema = field_str(line, "schema").unwrap_or("?");
            if schema != "rastor-cluster/v1" {
                return Err(format!(
                    "cluster file {path} has schema {schema:?}, this rastor speaks rastor-cluster/v1"
                ));
            }
        } else if line.starts_with("{\"shard\":") {
            let control = field_str(line, "control")
                .ok_or_else(|| format!("cluster file {path}: shard line without a control addr"))?;
            let data = field_str(line, "data")
                .ok_or_else(|| format!("cluster file {path}: shard line without a data addr"))?;
            shards.push((parse_addr(control, "control")?, parse_addr(data, "data")?));
        } else if let Some(v) = field(line, "t") {
            t = v.parse::<usize>().ok();
        } else if let Some(v) = field(line, "handles") {
            handles = v.parse::<u32>().ok();
        } else if let Some(v) = field(line, "fast_reads") {
            fast_reads = v.parse::<bool>().ok();
        } else if let Some(v) = field_str(line, "ops") {
            ops = Some(parse_addr(v, "ops")?);
        }
    }
    let missing = |what: &str| format!("cluster file {path} is missing {what}");
    if shards.is_empty() {
        return Err(missing("its shard list"));
    }
    Ok(ClusterFile {
        t: t.ok_or_else(|| missing("\"t\""))?,
        handles: handles.ok_or_else(|| missing("\"handles\""))?,
        fast_reads: fast_reads.ok_or_else(|| missing("\"fast_reads\""))?,
        ops: ops.ok_or_else(|| missing("\"ops\""))?,
        shards,
    })
}

// ---------------------------------------------------------------------------
// serve

/// The store shape `serve`'s flags describe — `(t, shards, handles)` — or
/// the usage error for one no deployment can have.
fn serve_shape(flags: &Flags) -> std::result::Result<(usize, usize, u32), String> {
    let t = flags.num("t", 1)?;
    Ok((
        usize::try_from(t).map_err(|_| format!("--t {t} is out of range"))?,
        flags.positive("shards", 2)?,
        flags.positive("handles", 4)?,
    ))
}

fn cmd_serve(args: &[String]) -> Result<ExitCode> {
    let flags = match parse_flags(args, &SERVE) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let (t, shards, handles, jitter_us) = match (serve_shape(&flags), flags.num("jitter-us", 0)) {
        (Ok((t, s, h)), Ok(j)) => (t, s, h, j),
        (Err(e), _) | (_, Err(e)) => return Ok(usage_err(e)),
    };
    let (slow_us, trace_sample) = match (
        flags.num("slow-us", rastor::obs::trace::DEFAULT_SLOW_OP_THRESHOLD_US),
        flags.num("trace-sample", rastor::obs::trace::DEFAULT_SAMPLE_EVERY),
    ) {
        (Ok(s), Ok(n)) => (s, n),
        (Err(e), _) | (_, Err(e)) => return Ok(usage_err(e)),
    };
    // Tracing is on by default in a served deployment: the recorder is
    // fixed-memory, span sites are trace-id-gated, and only one op in
    // `--trace-sample` pays for spans at all.
    rastor::obs::trace::global().set_threshold_us(slow_us);
    rastor::obs::trace::global().set_sample_every(trace_sample);
    rastor::obs::trace::global().set_enabled(!flags.has("no-trace"));
    let mut cfg = StoreConfig::new(t, shards, handles).with_fast_reads(flags.has("fast-reads"));
    if jitter_us > 0 {
        cfg = cfg.with_jitter(Duration::from_micros(jitter_us));
    }
    if let Some(dir) = flags.get("wal") {
        cfg = cfg.with_wal(dir);
    }
    let chaos = flags.has("chaos").then(ChaosCfg::default);
    let fast_reads = cfg.fast_reads;
    let kv = NetKv::spawn(cfg, chaos)?;
    let shard_addrs: Vec<(SocketAddr, SocketAddr)> = (0..shards)
        .map(|s| (kv.control_addr(s), kv.data_addr(s)))
        .collect();
    let ops = OpsServer::spawn(Arc::new(Mutex::new(kv)))?;
    let cluster = ClusterFile {
        t,
        handles,
        fast_reads,
        ops: ops.local_addr(),
        shards: shard_addrs,
    };
    let path = flags.file();
    std::fs::write(path, render_cluster_file(&cluster))
        .map_err(|e| rastor::common::Error::io(format!("writing cluster file {path}"), &e))?;
    println!(
        "serving {shards} shard(s) of {} object(s) each (t={t}), ops at {}",
        3 * t + 1,
        ops.local_addr()
    );
    for (s, (control, data)) in cluster.shards.iter().enumerate() {
        println!("  shard {s}: control {control}, data {data}");
    }
    if flags.has("no-trace") {
        println!("tracing off");
    } else {
        println!(
            "tracing on, slow-op capture threshold {slow_us}\u{b5}s, sampling 1 in {}",
            trace_sample.max(1)
        );
    }
    println!("cluster file written to {path}; ^C to stop");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

// ---------------------------------------------------------------------------
// status / metrics

fn cmd_status(args: &[String]) -> Result<ExitCode> {
    let flags = match parse_flags(args, &STATUS) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let cluster = match parse_cluster_file(flags.file()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rastor status: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "cluster {}: t={} shards={} handles={} fast_reads={} ops={}",
        flags.file(),
        cluster.t,
        cluster.shards.len(),
        cluster.handles,
        if cluster.fast_reads { "on" } else { "off" },
        cluster.ops,
    );
    // One metrics snapshot serves every shard: all of a deployment's
    // servers share the process-wide registry.
    let counters = flat_counters(&ControlClient::connect(cluster.ops)?.metrics_json()?);
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    for (s, (control, data)) in cluster.shards.iter().enumerate() {
        let objects = ControlClient::connect(*control)?.status()?;
        let crashed = objects.iter().filter(|o| o.crashed).count();
        println!(
            "shard {s} @ {control} (data {data}): {}/{} objects serving",
            objects.len() - crashed,
            objects.len()
        );
        for o in &objects {
            println!(
                "  object {}: {}, {} envelope(s) served",
                o.id.0,
                if o.crashed { "CRASHED" } else { "serving" },
                o.served
            );
        }
        let fast = count(&format!("{}.{s}", names::KV_READS_FAST));
        let slow = count(&format!("{}.{s}", names::KV_READS_SLOW));
        println!("  reads: {fast} fast / {slow} slow");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode> {
    let flags = match parse_flags(args, &METRICS) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let cluster = match parse_cluster_file(flags.file()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rastor metrics: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let doc = ControlClient::connect(cluster.ops)?.metrics_json()?;
    if flags.has("json") {
        print!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }
    let counters = flat_counters(&doc);
    let width = counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    println!("counters:");
    for (name, value) in &counters {
        println!("  {name:width$}  {value}");
    }
    let hists = parse_hist_lines(&doc);
    if !hists.is_empty() {
        println!("histograms (\u{b5}s):");
        let w = hists.iter().map(|h| h.name.len()).max().unwrap_or(0);
        println!(
            "  {:w$}  {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "name", "count", "mean", "p50", "p95", "p99", "max"
        );
        for h in &hists {
            println!(
                "  {:w$}  {:>8} {:>10.1} {:>8} {:>8} {:>8} {:>8}",
                h.name, h.count, h.mean, h.p50, h.p95, h.p99, h.max
            );
        }
    }
    for r in parse_ring_lines(&doc) {
        let live: Vec<_> = r.slots.iter().filter(|s| s.count > 0).collect();
        match live.last() {
            None => println!(
                "ring {}: no samples yet (period {}s)",
                r.name, r.period_secs
            ),
            Some(last) => println!(
                "ring {}: {} live slot(s), period {}s, last slot {} op(s) mean {:.0}\u{b5}s",
                r.name,
                live.len(),
                r.period_secs,
                last.count,
                last.mean
            ),
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Readers for the histogram/ring lines of `rastor-metrics/v1`. Like
// `flat_counters`, these lean on the one-metric-per-line discipline
// instead of a JSON parser: a histogram line is the only kind carrying
// `"p99":`, a ring line the only kind carrying `"period_secs":`.

struct HistLine {
    name: String,
    count: u64,
    mean: f64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

fn parse_hist_lines(doc: &str) -> Vec<HistLine> {
    doc.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("\"p99\":") {
                return None;
            }
            Some(HistLine {
                name: line.strip_prefix('"')?.split('"').next()?.to_string(),
                count: field(line, "count")?.parse().ok()?,
                mean: field(line, "mean")?.parse().ok()?,
                p50: field(line, "p50")?.parse().ok()?,
                p95: field(line, "p95")?.parse().ok()?,
                p99: field(line, "p99")?.parse().ok()?,
                max: field(line, "max")?.parse().ok()?,
            })
        })
        .collect()
}

struct RingSlotLine {
    tick: u64,
    count: u64,
    mean: f64,
}

struct RingLine {
    name: String,
    period_secs: u64,
    slots: Vec<RingSlotLine>,
}

fn parse_ring_lines(doc: &str) -> Vec<RingLine> {
    doc.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("\"period_secs\":") {
                return None;
            }
            let name = line.strip_prefix('"')?.split('"').next()?.to_string();
            let period_secs = field(line, "period_secs")?.parse().ok()?;
            let body = line.split("\"slots\":[").nth(1)?.strip_suffix("]}")?;
            let mut slots = Vec::new();
            if !body.is_empty() {
                for entry in body
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .split("],[")
                {
                    // Slot shape: [tick, count, min, mean, max].
                    let f: Vec<&str> = entry.split(',').collect();
                    if f.len() == 5 {
                        slots.push(RingSlotLine {
                            tick: f[0].parse().ok()?,
                            count: f[1].parse().ok()?,
                            mean: f[3].parse().ok()?,
                        });
                    }
                }
            }
            slots.sort_by_key(|s| s.tick);
            Some(RingLine {
                name,
                period_secs,
                slots,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// watch: a refreshing terminal view over the deployment's `TimeRing`s —
// one sparkline column per ring slot, newest on the right.

fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let peak = vals.iter().copied().fold(0.0f64, f64::max);
    vals.iter()
        .map(|&v| {
            if peak <= 0.0 {
                '\u{b7}'
            } else {
                let idx = ((v / peak) * 7.0).round();
                BARS[(idx as usize).min(7)]
            }
        })
        .collect()
}

fn cmd_watch(args: &[String]) -> Result<ExitCode> {
    let flags = match parse_flags(args, &WATCH) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let interval = match flags.num("interval", 2) {
        Ok(v) => v.max(1),
        Err(e) => return Ok(usage_err(e)),
    };
    let once = flags.has("once");
    let cluster = match parse_cluster_file(flags.file()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rastor watch: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut prev_frames: Option<u64> = None;
    loop {
        let doc = ControlClient::connect(cluster.ops)?.metrics_json()?;
        let counters = flat_counters(&doc);
        let count = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let frames_in = count(names::NET_FRAMES_IN);
        let rate = prev_frames
            .map(|p| format!(", {}/s", frames_in.saturating_sub(p) / interval))
            .unwrap_or_default();
        println!(
            "watch @ {}: frames in {frames_in}{rate}, out {}, slow-ops captured {}",
            cluster.ops,
            count(names::NET_FRAMES_OUT),
            count(names::TRACE_SLOW_OPS_CAPTURED),
        );
        for r in parse_ring_lines(&doc) {
            let live: Vec<&RingSlotLine> = r.slots.iter().filter(|s| s.count > 0).collect();
            if live.is_empty() {
                println!("  {}: no samples yet", r.name);
                continue;
            }
            let counts: Vec<f64> = live.iter().map(|s| s.count as f64).collect();
            let means: Vec<f64> = live.iter().map(|s| s.mean).collect();
            let peak_ops = counts.iter().copied().fold(0.0f64, f64::max);
            let peak_us = means.iter().copied().fold(0.0f64, f64::max);
            println!("  {} (per {}s slot):", r.name, r.period_secs);
            println!(
                "    ops/slot {}  last {} peak {:.0}",
                sparkline(&counts),
                live.last().map_or(0, |s| s.count),
                peak_ops
            );
            println!(
                "    mean \u{b5}s  {}  last {:.0} peak {:.0}",
                sparkline(&means),
                live.last().map_or(0.0, |s| s.mean),
                peak_us
            );
        }
        if once {
            return Ok(ExitCode::SUCCESS);
        }
        prev_frames = Some(frames_in);
        std::thread::sleep(Duration::from_secs(interval));
    }
}

// ---------------------------------------------------------------------------
// trace: fetch the deployment's captured slow-op traces and render each
// as an indented span tree (a span is nested under any span whose
// interval strictly contains it).

struct SpanLine {
    name: String,
    detail: u64,
    start_us: u64,
    end_us: u64,
}

struct TraceLine {
    trace: u64,
    latency_us: u64,
    dropped: u64,
    spans: Vec<SpanLine>,
}

fn parse_trace_lines(doc: &str) -> Vec<TraceLine> {
    doc.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with("{\"trace\":") {
                return None;
            }
            let body = line.split("\"spans\":[").nth(1)?.strip_suffix("]}")?;
            let mut spans = Vec::new();
            if !body.is_empty() {
                for entry in body
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .split("],[")
                {
                    // Span shape: ["name", detail, start_us, end_us].
                    let f: Vec<&str> = entry.split(',').collect();
                    if f.len() == 4 {
                        spans.push(SpanLine {
                            name: f[0].trim_matches('"').to_string(),
                            detail: f[1].parse().ok()?,
                            start_us: f[2].parse().ok()?,
                            end_us: f[3].parse().ok()?,
                        });
                    }
                }
            }
            Some(TraceLine {
                trace: field(line, "trace")?.parse().ok()?,
                latency_us: field(line, "latency_us")?.parse().ok()?,
                dropped: field(line, "dropped")?.parse().ok()?,
                spans,
            })
        })
        .collect()
}

fn cmd_trace(args: &[String]) -> Result<ExitCode> {
    let flags = match parse_flags(args, &TRACE) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let cluster = match parse_cluster_file(flags.file()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rastor trace: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let doc = ControlClient::connect(cluster.ops)?.traces_json()?;
    if flags.has("json") {
        print!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }
    let threshold: u64 = field(&doc, "threshold_us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let sample: u64 = field(&doc, "sample_every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let enabled = doc.contains("\"enabled\": true");
    let traces = parse_trace_lines(&doc);
    println!(
        "tracing {}, slow-op threshold {threshold}\u{b5}s, sampling 1 in {sample}, {} captured trace(s)",
        if enabled { "on" } else { "off" },
        traces.len()
    );
    for t in &traces {
        let t0 = t.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        println!(
            "trace {:#x}: latency {}\u{b5}s, {} span(s){}",
            t.trace,
            t.latency_us,
            t.spans.len(),
            if t.dropped > 0 {
                format!(", {} dropped", t.dropped)
            } else {
                String::new()
            }
        );
        let mut order: Vec<usize> = (0..t.spans.len()).collect();
        order.sort_by_key(|&i| (t.spans[i].start_us, std::cmp::Reverse(t.spans[i].end_us)));
        for &i in &order {
            let s = &t.spans[i];
            let depth = t
                .spans
                .iter()
                .filter(|o| {
                    o.start_us <= s.start_us
                        && o.end_us >= s.end_us
                        && (o.start_us, o.end_us) != (s.start_us, s.end_us)
                })
                .count();
            println!(
                "  {:>8} ..{:>8}  {:indent$}{} (detail {}, {}\u{b5}s)",
                s.start_us.saturating_sub(t0),
                s.end_us.saturating_sub(t0),
                "",
                s.name,
                s.detail,
                s.end_us.saturating_sub(s.start_us),
                indent = depth * 2
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// restart-object / partition-toggle

enum AdminVerb {
    Restart,
    Partition,
}

fn cmd_admin(args: &[String], takes: &Takes, verb: AdminVerb) -> Result<ExitCode> {
    let flags = match parse_flags(args, takes) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let cmd = match &verb {
        AdminVerb::Restart => {
            let (shard, object) = match (flags.required_num("shard"), flags.required_num("object"))
            {
                (Ok(s), Ok(o)) => (s as u32, o as u32),
                (Err(e), _) | (_, Err(e)) => return Ok(usage_err(e)),
            };
            AdminCmd::RestartObject { shard, object }
        }
        AdminVerb::Partition => {
            let shard = match flags.required_num("shard") {
                Ok(s) => s as u32,
                Err(e) => return Ok(usage_err(e)),
            };
            let on = match flags.positional.first().map(String::as_str) {
                Some("on") => true,
                Some("off") => false,
                other => {
                    return Ok(usage_err(format!(
                        "partition-toggle wants a trailing on|off, got {other:?}"
                    )))
                }
            };
            AdminCmd::Partition { shard, on }
        }
    };
    let cluster = match parse_cluster_file(flags.file()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rastor: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let outcome = ControlClient::connect(cluster.ops)?.admin(cmd)?;
    println!("{}", outcome.detail);
    Ok(if outcome.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// bench

/// The workload `bench`'s flags describe, or the usage error for a value
/// no run can make progress with.
fn bench_cfg(flags: &Flags) -> std::result::Result<Mix, String> {
    let put_pct = match flags.num("put-pct", 10)? {
        p @ 0..=100 => p as u32,
        p => return Err(format!("--put-pct is a percentage, got {p}")),
    };
    Ok(Mix {
        put_pct,
        depth: flags.positive("depth", 8)?,
        ..Mix::mixed(
            flags.positive("threads", 4)?,
            flags.positive("keys", 32)?,
            flags.num("ops", 200)?,
        )
    })
}

fn cmd_bench(args: &[String]) -> Result<ExitCode> {
    let flags = match parse_flags(args, &BENCH) {
        Ok(f) => f,
        Err(e) => return Ok(usage_err(e)),
    };
    let cfg = match bench_cfg(&flags) {
        Ok(c) => c,
        Err(e) => return Ok(usage_err(e)),
    };
    let cluster = match parse_cluster_file(flags.file()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rastor bench: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Trace ids are minted client-side (the driver owns the op), so a
    // bench that should exercise the cluster's span capture has to turn
    // its own recorder on; the servers tag whatever ids arrive on the
    // wire. Off by default.
    match flags.num("trace-sample", 0) {
        Ok(0) => {}
        Ok(n) => {
            let rec = rastor::obs::trace::global();
            rec.set_sample_every(n);
            rec.set_enabled(true);
        }
        Err(e) => return Ok(usage_err(e)),
    }
    // Connect a store of our own to the cluster's data plane; the local
    // global registry collects this process's kv-seam metrics, which we
    // report back to the deployment afterwards.
    let transports: Vec<Box<dyn Transport<Req, Rep> + Send + Sync>> = cluster
        .shards
        .iter()
        .map(|(_, data)| {
            NetCluster::connect(&[*data])
                .map(|c| Box::new(c) as Box<dyn Transport<Req, Rep> + Send + Sync>)
        })
        .collect::<Result<_>>()?;
    let registry = Registry::global();
    let store = ShardedKvStore::over_transports(
        cluster.t,
        cluster.handles.max(cfg.handles),
        cluster.fast_reads,
        transports,
        Arc::new(InMemory),
        Some(Arc::clone(&registry)),
    )?;
    // Seed the key space so gets always have something to return.
    {
        let mut seeder = store.handle(0)?;
        for k in 0..cfg.keys {
            seeder.put(&workload::key_name(k), Value::from_u64(1))?;
        }
    }
    let run = workload::start(&store, &cfg).join();
    let (puts, gets) = run.latencies_us();
    let (ops, secs) = (puts.len() + gets.len(), run.elapsed().as_secs_f64());
    println!(
        "cli-bench-d{}: {ops} ops ({} errors) in {secs:.2}s = {:.0} ops/s",
        cfg.depth,
        run.failed().len(),
        ops as f64 / secs.max(1e-9)
    );
    for (kind, sample) in [("put", puts), ("get", gets)] {
        if let Some(l) = Summary::of(sample) {
            println!(
                "  {kind} latency µs: mean {:.0} p50 {} p95 {} max {}",
                l.mean, l.p50, l.p95, l.max
            );
        }
    }
    if let Some(r) = run.get_rounds_mean() {
        println!("  get rounds mean: {r:.2}");
    }
    // Report this client's per-shard read-path counts to the shard that
    // earned them, as plain counters (`kv.reads_fast.<s>`): `rastor
    // status` then shows them next to the server-side object tallies.
    let fast = registry.counter_vec(names::KV_READS_FAST, cluster.shards.len());
    let slow = registry.counter_vec(names::KV_READS_SLOW, cluster.shards.len());
    for (s, (control, _)) in cluster.shards.iter().enumerate() {
        let counts = vec![
            (format!("{}.{s}", names::KV_READS_FAST), fast.get(s)),
            (format!("{}.{s}", names::KV_READS_SLOW), slow.get(s)),
        ];
        ControlClient::connect(*control)?.report(counts)?;
        println!(
            "  shard {s}: {} fast / {} slow reads (reported to {control})",
            fast.get(s),
            slow.get(s)
        );
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_flags(args: &[&str]) -> std::result::Result<Mix, String> {
        bench_cfg(&parse(&BENCH, &args.join(" "))?)
    }

    fn parse(takes: &Takes, line: &str) -> std::result::Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_flags(&args, takes)
    }

    /// Every command line the handbook, the README and CI's `cli-smoke`
    /// use parses; a flag of another subcommand, a misspelt one or a
    /// stray word does not.
    #[test]
    fn each_subcommand_takes_its_own_flags_and_nothing_else() {
        for (takes, ok) in [
            (
                &SERVE,
                "--shards 2 --handles 4 --fast-reads --chaos --wal ./data",
            ),
            (
                &SERVE,
                "--t 1 --jitter-us 5 --slow-us 0 --trace-sample 1 --no-trace --file f",
            ),
            (&STATUS, "--file f"),
            (&METRICS, "--json"),
            (&WATCH, "--interval 1 --once"),
            (&TRACE, "--json --file f"),
            (&RESTART_OBJECT, "--shard 0 --object 3"),
            (&PARTITION_TOGGLE, "--shard 1 on"),
            (
                &BENCH,
                "--ops 100 --depth 8 --put-pct 50 --threads 4 --keys 8 --trace-sample 4",
            ),
            (&MANIFEST, ""),
        ] {
            assert!(parse(takes, ok).is_ok(), "{ok:?}");
        }
        for (takes, bad, names) in [
            (&SERVE, "--shard 3", "--shard"),
            (&SERVE, "--bogus", "--bogus"),
            (&BENCH, "--op 7", "--op"),
            (&BENCH, "--thread 1", "--thread"),
            (&STATUS, "--nonsense", "--nonsense"),
            (&STATUS, "extra", "extra"),
            (&METRICS, "--once", "--once"),
            (&PARTITION_TOGGLE, "--shard 1 on off", "off"),
            (&MANIFEST, "--json", "--json"),
            (&BENCH, "--ops", "--ops needs a value"),
        ] {
            let err = parse(takes, bad).err().expect("rejected");
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }

    #[test]
    fn serve_flags_reject_shapes_no_deployment_can_have() {
        let shape = |line: &str| serve_shape(&parse(&SERVE, line)?);
        assert_eq!(shape(""), Ok((1, 2, 4)));
        assert_eq!(
            shape("--t 0 --shards 1 --handles 4294967295"),
            Ok((0, 1, u32::MAX))
        );
        for (bad, names) in [
            ("--shards 0", "--shards"),
            ("--handles 0", "--handles"),
            ("--handles 4294967297", "--handles"),
            ("--t x", "--t"),
        ] {
            let err = shape(bad).expect_err("rejected");
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }

    #[test]
    fn bench_flags_reject_values_no_run_can_use() {
        let cfg = bench_flags(&[]).expect("defaults are valid");
        assert_eq!((cfg.handles, cfg.depth, cfg.keys), (4, 8, 32));
        assert_eq!((cfg.put_pct, cfg.ops_per_handle), (10, 200));
        for ok in [
            &["--depth", "1"][..],
            &["--keys", "1"],
            &["--threads", "1"],
            &["--put-pct", "0"],
            &["--put-pct", "100"],
            &["--ops", "0"],
        ] {
            assert!(bench_flags(ok).is_ok(), "{ok:?}");
        }
        for (bad, names) in [
            (&["--depth", "0"][..], "--depth"),
            (&["--keys", "0"], "--keys"),
            (&["--threads", "0"], "--threads"),
            (&["--put-pct", "101"], "--put-pct"),
            (&["--keys", "4294967296"], "--keys"),
            (&["--depth", "x"], "--depth"),
        ] {
            let err = bench_flags(bad).expect_err("rejected");
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }
}
