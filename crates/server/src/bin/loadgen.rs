//! `loadgen`: many-connection load generator for `shortcut-server`.
//!
//! Opens N client connections, prefills the keyspace, then runs a mixed
//! read/write phase (zipf or uniform key choice, configurable read
//! fraction, batch-synchronous pipelining) for a fixed duration. Prints
//! one machine-parseable `RESULT` line (QPS, p50/p99 latency) and one
//! `SERVER` line distilled from the server's `INFO` reply — the CI smoke
//! leg greps these.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
loadgen — load generator for shortcut-server

USAGE:
    loadgen [FLAGS]

FLAGS:
    --addr HOST:PORT   server address            [default: 127.0.0.1:6399]
    --conns N          client connections        [default: 8]
    --secs S           mixed-phase duration      [default: 5]
    --keys N           keyspace size             [default: 100000]
    --read-frac F      read fraction in [0,1]    [default: 0.9]
    --dist D           zipf | uniform            [default: zipf]
    --theta T          zipf skew                 [default: 0.99]
    --pipeline N       requests in flight        [default: 8]
    --mget N           keys per read (1 = GET)   [default: 1]
    --seed N           rng seed                  [default: 42]
    --quick            small preset for CI smoke (2s, 20k keys)
    --shutdown         send SHUTDOWN when done
    --help             print this text

Exit status is nonzero if no requests complete or any reply is an error.
";

#[derive(Clone)]
struct Config {
    addr: String,
    conns: usize,
    secs: u64,
    keys: u64,
    read_frac: f64,
    zipf: bool,
    theta: f64,
    pipeline: usize,
    mget: usize,
    seed: u64,
    shutdown: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:6399".to_string(),
            conns: 8,
            secs: 5,
            keys: 100_000,
            read_frac: 0.9,
            zipf: true,
            theta: 0.99,
            pipeline: 8,
            mget: 1,
            seed: 42,
            shutdown: false,
        }
    }
}

fn parse_args(mut args: std::env::Args) -> Result<Config, String> {
    let mut cfg = Config::default();
    args.next();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--quick" => {
                cfg.secs = 2;
                cfg.keys = 20_000;
                cfg.pipeline = 4;
                continue;
            }
            "--shutdown" => {
                cfg.shutdown = true;
                continue;
            }
            _ => {}
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value (see --help)"))?;
        match flag.as_str() {
            "--addr" => cfg.addr = value,
            "--conns" => cfg.conns = parse(&flag, &value)?,
            "--secs" => cfg.secs = parse(&flag, &value)?,
            "--keys" => cfg.keys = parse(&flag, &value)?,
            "--read-frac" => {
                cfg.read_frac = value
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| format!("--read-frac: fraction in [0,1], got {value:?}"))?;
            }
            "--dist" => {
                cfg.zipf = match value.as_str() {
                    "zipf" => true,
                    "uniform" => false,
                    _ => return Err(format!("--dist: zipf or uniform, got {value:?}")),
                };
            }
            "--theta" => {
                cfg.theta = value
                    .parse::<f64>()
                    .map_err(|_| format!("--theta: number expected, got {value:?}"))?;
            }
            "--pipeline" => cfg.pipeline = parse::<usize>(&flag, &value).map(|n| n.max(1))?,
            "--mget" => cfg.mget = parse::<usize>(&flag, &value).map(|n| n.max(1))?,
            "--seed" => cfg.seed = parse(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag} (see --help)")),
        }
    }
    if cfg.conns == 0 || cfg.keys == 0 {
        return Err("--conns and --keys must be nonzero".to_string());
    }
    Ok(cfg)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{flag}: number expected, got {value:?}"))
}

/// Zipf(θ) over ranks `0..n` via an inverse-CDF table: build the
/// cumulative mass once, sample with a binary search per draw.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Zipf {
        let n = n as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for mass in &mut cdf {
            *mass /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&mass| mass < u) as u64
    }
}

/// What one reply was, as far as the load generator cares.
enum ReplyKind {
    Ok,
    Error,
}

/// Minimal incremental RESP reply reader over a raw stream.
struct ReplyReader {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl ReplyReader {
    fn new(stream: TcpStream) -> ReplyReader {
        ReplyReader {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one `\r\n`-terminated line (blocking until complete).
    fn line(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let end = self.pos + nl;
                let line = self.buf[self.pos..end.saturating_sub(1).max(self.pos)].to_vec();
                self.pos = end + 1;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Consume exactly `n` payload bytes plus the trailing CRLF,
    /// returning the payload.
    fn exact(&mut self, n: usize) -> std::io::Result<Vec<u8>> {
        while self.buf.len() - self.pos < n + 2 {
            self.fill()?;
        }
        let payload = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n + 2;
        Ok(payload)
    }

    /// Read and discard one complete reply, reporting only ok/error.
    fn next(&mut self) -> std::io::Result<ReplyKind> {
        let line = self.line()?;
        let (kind, rest) = match line.split_first() {
            Some(split) => split,
            None => {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "empty reply line",
                ))
            }
        };
        match kind {
            b'+' | b':' => Ok(ReplyKind::Ok),
            b'-' => Ok(ReplyKind::Error),
            b'$' => {
                let len: i64 = parse_ascii(rest)?;
                if len >= 0 {
                    self.exact(len as usize)?;
                }
                Ok(ReplyKind::Ok)
            }
            b'*' => {
                let n: i64 = parse_ascii(rest)?;
                let mut worst = ReplyKind::Ok;
                for _ in 0..n.max(0) {
                    if let ReplyKind::Error = self.next()? {
                        worst = ReplyKind::Error;
                    }
                }
                Ok(worst)
            }
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected reply type byte {other:?}"),
            )),
        }
    }

    /// Read one reply expecting a bulk string; return its payload.
    fn next_bulk(&mut self) -> std::io::Result<Vec<u8>> {
        let line = self.line()?;
        match line.split_first() {
            Some((b'$', rest)) => {
                let len: i64 = parse_ascii(rest)?;
                if len < 0 {
                    return Ok(Vec::new());
                }
                self.exact(len as usize)
            }
            _ => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "expected bulk reply, got {:?}",
                    String::from_utf8_lossy(&line)
                ),
            )),
        }
    }
}

fn parse_ascii(bytes: &[u8]) -> std::io::Result<i64> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| s.trim().parse::<i64>().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad length in reply"))
}

fn encode(out: &mut Vec<u8>, parts: &[&[u8]]) {
    out.extend_from_slice(format!("*{}\r\n", parts.len()).as_bytes());
    for part in parts {
        out.extend_from_slice(format!("${}\r\n", part.len()).as_bytes());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
}

struct WorkerResult {
    ops: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// One connection's whole life: prefill its key slice, then hammer the
/// mixed workload until the deadline.
fn worker(cfg: &Config, zipf: Option<&Zipf>, id: usize) -> std::io::Result<WorkerResult> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut reader = ReplyReader::new(stream.try_clone()?);
    let mut out = BufWriter::with_capacity(64 * 1024, stream);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(id as u64));
    let mut result = WorkerResult {
        ops: 0,
        errors: 0,
        latencies_us: Vec::with_capacity(1 << 16),
    };

    // Prefill this worker's slice of the keyspace, pipelined in chunks.
    let lo = cfg.keys * id as u64 / cfg.conns as u64;
    let hi = cfg.keys * (id as u64 + 1) / cfg.conns as u64;
    let mut batch = Vec::with_capacity(64 * 1024);
    let mut pending = 0usize;
    for key in lo..hi {
        encode(
            &mut batch,
            &[
                b"SET",
                key.to_string().as_bytes(),
                (key * 10).to_string().as_bytes(),
            ],
        );
        pending += 1;
        if pending == 512 || key + 1 == hi {
            out.write_all(&batch)?;
            out.flush()?;
            batch.clear();
            for _ in 0..pending {
                if let ReplyKind::Error = reader.next()? {
                    result.errors += 1;
                }
            }
            pending = 0;
        }
    }

    // Mixed phase: batch-synchronous pipelining — send `pipeline`
    // requests, flush, collect the replies, repeat. Latency is measured
    // per reply from the batch's send instant.
    let deadline = Instant::now() + Duration::from_secs(cfg.secs);
    while Instant::now() < deadline {
        batch.clear();
        let depth = cfg.pipeline;
        for _ in 0..depth {
            let pick = |rng: &mut StdRng| -> u64 {
                match zipf {
                    Some(z) => z.sample(rng),
                    None => rng.random_range(0..cfg.keys),
                }
            };
            let is_read = rng.random::<f64>() < cfg.read_frac;
            if is_read {
                if cfg.mget > 1 {
                    let keys: Vec<Vec<u8>> = (0..cfg.mget)
                        .map(|_| pick(&mut rng).to_string().into_bytes())
                        .collect();
                    let mut parts: Vec<&[u8]> = vec![b"MGET"];
                    parts.extend(keys.iter().map(|k| k.as_slice()));
                    encode(&mut batch, &parts);
                } else {
                    encode(&mut batch, &[b"GET", pick(&mut rng).to_string().as_bytes()]);
                }
            } else {
                let key = pick(&mut rng);
                encode(
                    &mut batch,
                    &[
                        b"SET",
                        key.to_string().as_bytes(),
                        rng.random::<u64>().to_string().as_bytes(),
                    ],
                );
            }
        }
        let sent = Instant::now();
        out.write_all(&batch)?;
        out.flush()?;
        for _ in 0..depth {
            if let ReplyKind::Error = reader.next()? {
                result.errors += 1;
            }
            result.ops += 1;
            result
                .latencies_us
                .push(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    Ok(result)
}

/// Fetch INFO over a fresh connection and distill the fields the
/// `SERVER` output line reports.
fn server_report(cfg: &Config) -> std::io::Result<String> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut reader = ReplyReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut buf = Vec::new();
    encode(&mut buf, &[b"INFO"]);
    out.write_all(&buf)?;
    let info = String::from_utf8_lossy(&reader.next_bulk()?).to_string();

    let field = |key: &str| -> String {
        info.lines()
            .find_map(|l| l.trim_end().strip_prefix(key).map(|v| v.trim().to_string()))
            .unwrap_or_else(|| "?".to_string())
    };
    // `lookups: shortcut=A traditional=B ...` from the snapshot.
    let lookup = |name: &str| -> String {
        info.lines()
            .find(|l| l.starts_with("lookups:"))
            .and_then(|l| {
                l.split_whitespace()
                    .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            })
            .unwrap_or("?")
            .to_string()
    };
    let report = format!(
        "SERVER engine={} shortcut_lookups={} traditional_lookups={} \
         mean_read_batch_keys={} mean_read_batch_ops={} read_batches={} write_batches={}",
        field("engine:"),
        lookup("shortcut"),
        lookup("traditional"),
        field("mean_read_batch_keys:"),
        field("mean_read_batch_ops:"),
        field("read_batches:"),
        field("write_batches:"),
    );

    if cfg.shutdown {
        buf.clear();
        encode(&mut buf, &[b"SHUTDOWN"]);
        out.write_all(&buf)?;
        let _ = reader.next();
    }
    Ok(report)
}

fn main() {
    let cfg = match parse_args(std::env::args()) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let zipf = cfg.zipf.then(|| Arc::new(Zipf::new(cfg.keys, cfg.theta)));

    let start = Instant::now();
    let results: Vec<std::io::Result<WorkerResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|id| {
                let cfg = &cfg;
                let zipf = zipf.as_deref();
                scope.spawn(move || worker(cfg, zipf, id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let mut ops = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut io_failures = 0u64;
    for r in results {
        match r {
            Ok(w) => {
                ops += w.ops;
                errors += w.errors;
                latencies.extend(w.latencies_us);
            }
            Err(e) => {
                eprintln!("loadgen: worker failed: {e}");
                io_failures += 1;
            }
        }
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * p) as usize]
        }
    };
    let qps = ops as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "RESULT conns={} secs={} keys={} read_frac={} dist={} pipeline={} mget={} \
         ops={ops} errors={errors} qps={qps:.0} p50_us={} p99_us={}",
        cfg.conns,
        cfg.secs,
        cfg.keys,
        cfg.read_frac,
        if cfg.zipf { "zipf" } else { "uniform" },
        cfg.pipeline,
        cfg.mget,
        pct(0.50),
        pct(0.99),
    );
    match server_report(&cfg) {
        Ok(line) => println!("{line}"),
        Err(e) => eprintln!("loadgen: INFO fetch failed: {e}"),
    }
    if ops == 0 || errors > 0 || io_failures > 0 {
        eprintln!("loadgen: FAILED (ops={ops} errors={errors} io_failures={io_failures})");
        std::process::exit(1);
    }
}
