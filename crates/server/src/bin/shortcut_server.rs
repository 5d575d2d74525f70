//! The `shortcut-server` binary: parse flags onto a
//! [`ServerConfig`], serve until `SHUTDOWN` (or SIGINT-by-kill), then
//! print the final stats dump.

use shortcut_server::{Engine, Server, ServerConfig};

const USAGE: &str = "\
shortcut-server — RESP-speaking KV server over the shortcut index

USAGE:
    shortcut-server [FLAGS]

FLAGS:
    --addr HOST:PORT       listen address        [default: 127.0.0.1:6399]
    --engine ARM           shortcut-eh | eh      [default: shortcut-eh]
    --shards S             2^S index shards      [default: 2]
    --capacity N           expected live entries [default: 1000000]
    --max-batch N          max ops per batch     [default: 256]
    --help                 print this text

Stop it with a RESP `SHUTDOWN` command; the server drains in-flight
requests and prints a final stats dump.
";

fn parse_args(mut args: std::env::Args) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    args.next(); // argv[0]
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value (see --help)"))?;
        let parse_num = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {what} expected, got {value:?}"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value.clone(),
            "--engine" => {
                cfg.engine = Engine::parse(&value)
                    .ok_or_else(|| format!("--engine: shortcut-eh or eh, got {value:?}"))?;
            }
            "--shards" => cfg.shard_bits = parse_num("shard bits")? as u32,
            "--capacity" => cfg.capacity = parse_num("entry count")? as usize,
            "--max-batch" => cfg.max_batch = (parse_num("batch size")? as usize).max(1),
            _ => return Err(format!("unknown flag {flag} (see --help)")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args(std::env::args()) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("shortcut-server: {e}");
            std::process::exit(2);
        }
    };
    let engine = cfg.engine.as_str().to_string();
    let server = match Server::spawn(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shortcut-server: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "shortcut-server listening on {} engine={engine}",
        server.local_addr()
    );
    let report = server.join();
    println!("shortcut-server: shut down, final stats:");
    print!("{}", report.snapshot);
    for line in report.info.lines() {
        // The INFO text repeats the snapshot; keep only the server-side
        // counters in the exit dump.
        let line = line.trim_end_matches('\r');
        if line.starts_with('#') || line.contains(':') {
            println!("{line}");
        }
        if line.starts_with("# index") {
            break;
        }
    }
}
