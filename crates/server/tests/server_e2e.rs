//! End-to-end test (satellite #3): a real `Server` on a loopback
//! ephemeral port, driven by raw-socket clients — concurrent
//! `SET`/`GET`/`MGET`/`DEL` traffic checked against a `ChainedHash`
//! oracle, `INFO` over the wire, a mid-stream disconnect that must not
//! take the server down, and a `SHUTDOWN` that drains every in-flight
//! request before the final stats dump.

use shortcut_exhash::{ChConfig, ChainedHash, Index};
use shortcut_rewire::sync::Ordering;
use shortcut_server::{Server, ServerConfig};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};

#[path = "../../../tests/common/mod.rs"]
mod common;

/// A decoded reply, as much structure as the assertions need.
#[derive(Debug, Clone, PartialEq, Eq)]
enum R {
    Simple(String),
    Error(String),
    Int(i64),
    Bulk(Option<String>),
    Array(Vec<Option<String>>),
}

/// Blocking raw-socket RESP client.
struct Client {
    out: BufWriter<TcpStream>,
    inp: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Client {
            inp: BufReader::new(stream.try_clone().unwrap()),
            out: BufWriter::new(stream),
        }
    }

    fn send(&mut self, args: &[&str]) {
        let mut wire = Vec::new();
        wire.extend_from_slice(format!("*{}\r\n", args.len()).as_bytes());
        for a in args {
            wire.extend_from_slice(format!("${}\r\n{a}\r\n", a.len()).as_bytes());
        }
        self.out.write_all(&wire).unwrap();
    }

    fn flush(&mut self) {
        self.out.flush().unwrap();
    }

    fn line(&mut self) -> String {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            self.inp.read_exact(&mut byte).expect("read reply line");
            if byte[0] == b'\n' {
                break;
            }
            if byte[0] != b'\r' {
                line.push(byte[0]);
            }
        }
        String::from_utf8(line).expect("utf8 reply line")
    }

    fn bulk_payload(&mut self, header: &str) -> Option<String> {
        let len: i64 = header.parse().expect("bulk length");
        if len < 0 {
            return None;
        }
        let mut payload = vec![0u8; len as usize + 2];
        self.inp.read_exact(&mut payload).expect("bulk payload");
        payload.truncate(len as usize);
        Some(String::from_utf8(payload).expect("utf8 bulk"))
    }

    fn recv(&mut self) -> R {
        let line = self.line();
        let (kind, rest) = line.split_at(1);
        match kind {
            "+" => R::Simple(rest.to_string()),
            "-" => R::Error(rest.to_string()),
            ":" => R::Int(rest.parse().expect("int reply")),
            "$" => R::Bulk(self.bulk_payload(rest)),
            "*" => {
                let n: usize = rest.parse().expect("array length");
                R::Array(
                    (0..n)
                        .map(|_| match self.recv() {
                            R::Bulk(b) => b,
                            other => panic!("non-bulk array element: {other:?}"),
                        })
                        .collect(),
                )
            }
            other => panic!("unknown reply type {other:?} in {line:?}"),
        }
    }

    fn roundtrip(&mut self, args: &[&str]) -> R {
        self.send(args);
        self.flush();
        self.recv()
    }
}

fn spawn_server() -> Server {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        capacity: 50_000,
        shard_bits: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

#[test]
fn concurrent_clients_match_chained_hash_oracle() {
    const CLIENTS: u64 = 6;
    const OPS: u64 = 400;
    const STRIDE: u64 = 1_000_000; // disjoint per-client keyspaces

    let server = spawn_server();
    let addr = server.local_addr();

    // Each client runs a deterministic script over its own key range and
    // checks every reply against a local oracle as it goes.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let mut oracle = std::collections::HashMap::<u64, u64>::new();
                for i in 0..OPS {
                    let key = c * STRIDE + (i * 7) % 97;
                    let ks = key.to_string();
                    match i % 5 {
                        0 | 1 => {
                            let value = i * 1000 + c;
                            assert_eq!(
                                client.roundtrip(&["SET", &ks, &value.to_string()]),
                                R::Simple("OK".into())
                            );
                            oracle.insert(key, value);
                        }
                        2 | 3 => {
                            let want = oracle.get(&key).map(|v| v.to_string());
                            assert_eq!(client.roundtrip(&["GET", &ks]), R::Bulk(want));
                        }
                        _ => {
                            let want = i64::from(oracle.remove(&key).is_some());
                            assert_eq!(client.roundtrip(&["DEL", &ks]), R::Int(want));
                        }
                    }
                }
            });
        }
    });

    // Replay the same scripts into a ChainedHash oracle (disjoint key
    // ranges make cross-client order irrelevant), then audit the full
    // keyspace over the wire with MGET.
    let mut oracle = ChainedHash::try_new(ChConfig {
        table_slots: 1 << 12,
    })
    .unwrap();
    for c in 0..CLIENTS {
        for i in 0..OPS {
            let key = c * STRIDE + (i * 7) % 97;
            match i % 5 {
                0 | 1 => oracle.insert(key, i * 1000 + c).unwrap(),
                2 | 3 => {}
                _ => {
                    oracle.remove(key).unwrap();
                }
            }
        }
    }
    let mut audit = Client::connect(addr);
    for c in 0..CLIENTS {
        let keys: Vec<String> = (0..97).map(|r| (c * STRIDE + r).to_string()).collect();
        let mut args: Vec<&str> = vec!["MGET"];
        args.extend(keys.iter().map(|k| k.as_str()));
        let want: Vec<Option<String>> = (0..97)
            .map(|r| oracle.get(c * STRIDE + r).map(|v| v.to_string()))
            .collect();
        assert_eq!(
            audit.roundtrip(&args),
            R::Array(want),
            "client {c} keyspace diverged"
        );
    }

    // INFO over the wire: bulk text with every section present.
    match audit.roundtrip(&["INFO"]) {
        R::Bulk(Some(info)) => {
            for needle in ["# server", "# batching", "lookups:", "shard0:"] {
                assert!(info.contains(needle), "INFO missing {needle}");
            }
        }
        other => panic!("INFO returned {other:?}"),
    }

    server.shutdown();
    let report = server.join();
    assert_eq!(report.snapshot.len as u64, Index::len(&oracle) as u64);
}

#[test]
fn pipelined_reads_aggregate_into_batches() {
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        capacity: 10_000,
        max_batch: 256,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        client.roundtrip(&["SET", "1", "10"]),
        R::Simple("OK".into())
    );

    // 512 pipelined GETs in one flush (≈ 10 KB, one or two server reads):
    // the connection runs each read's GETs in batches of up to 256,
    // without any wait for company.
    const N: usize = 512;
    for _ in 0..N {
        client.send(&["GET", "1"]);
    }
    client.flush();
    for _ in 0..N {
        assert_eq!(client.recv(), R::Bulk(Some("10".into())));
    }
    let stats = &server.ctx().stats;
    let mean = stats.mean_read_batch_ops();
    assert!(
        mean >= 32.0,
        "a read's GETs were not batched together: mean read batch {mean:.2}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn max_batch_splits_a_long_read_into_batches_in_order() {
    const MAX: usize = 8;
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        capacity: 10_000,
        max_batch: MAX,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr());

    // One flush of GET 999, then SET k / GET k pairs: batches of 8 ops end
    // between a SET and its GET, and each GET must still see its SET.
    client.send(&["GET", "999"]);
    for k in 0..20u64 {
        client.send(&["SET", &k.to_string(), &(k * 10).to_string()]);
        client.send(&["GET", &k.to_string()]);
    }
    client.flush();
    assert_eq!(client.recv(), R::Bulk(None));
    for k in 0..20u64 {
        assert_eq!(client.recv(), R::Simple("OK".into()));
        assert_eq!(client.recv(), R::Bulk(Some((k * 10).to_string())));
    }

    // 64 GETs in one flush run as at least 64 / 8 batches.
    let stats = &server.ctx().stats;
    let before = stats.read_batches.load(Ordering::Relaxed);
    for _ in 0..64 {
        client.send(&["GET", "1"]);
    }
    client.flush();
    for _ in 0..64 {
        assert_eq!(client.recv(), R::Bulk(Some("10".into())));
    }
    let batches = stats.read_batches.load(Ordering::Relaxed) - before;
    assert!(
        batches >= 64 / MAX as u64,
        "{batches} read batches for 64 GETs"
    );
    assert!(stats.mean_read_batch_ops() <= MAX as f64);

    server.shutdown();
    server.join();
}

#[test]
fn mid_stream_disconnect_does_not_take_the_server_down() {
    let server = spawn_server();
    let addr = server.local_addr();

    // Client A: pipeline writes it never reads replies for, plus a
    // truncated frame, then vanish.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut stream = stream;
        for k in 0..200u64 {
            let ks = k.to_string();
            let v = (k * 2).to_string();
            stream
                .write_all(
                    format!(
                        "*3\r\n$3\r\nSET\r\n${}\r\n{ks}\r\n${}\r\n{v}\r\n",
                        ks.len(),
                        v.len()
                    )
                    .as_bytes(),
                )
                .unwrap();
        }
        stream.write_all(b"*2\r\n$3\r\nGET\r\n$4\r\n12").unwrap(); // truncated
                                                                   // Drop without reading a single reply.
    }

    // Client B: the server must still answer, and A's completed writes
    // must be visible (they were accepted before the disconnect).
    let mut client = Client::connect(addr);
    assert_eq!(client.roundtrip(&["PING"]), R::Simple("PONG".into()));
    // A's pipeline races our read; poll until the last write lands.
    common::wait_until("the disconnected client's writes land", || {
        client.roundtrip(&["GET", "199"]) == R::Bulk(Some("398".into()))
    });

    // Malformed input on a live connection: error reply, then close.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(b"*1\r\n$notanumber\r\n").unwrap();
    let mut reply = String::new();
    bad.read_to_string(&mut reply).unwrap(); // server closes after the error
    assert!(reply.starts_with("-ERR"), "got {reply:?}");

    // And the server is still fine.
    assert_eq!(
        Client::connect(addr).roundtrip(&["PING"]),
        R::Simple("PONG".into())
    );

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_pipelined_requests_before_exiting() {
    let server = spawn_server();
    let addr = server.local_addr();

    // One connection pipelines a burst of SETs immediately followed by
    // SHUTDOWN, without reading anything in between. Every reply must
    // still arrive, in order — the drain contract.
    let mut client = Client::connect(addr);
    const N: u64 = 300;
    for k in 0..N {
        client.send(&["SET", &k.to_string(), &(k + 1).to_string()]);
    }
    client.send(&["SHUTDOWN"]);
    client.flush();
    for _ in 0..N {
        assert_eq!(client.recv(), R::Simple("OK".into()));
    }
    assert_eq!(client.recv(), R::Simple("OK".into()), "SHUTDOWN ack");

    let report = server.join();
    assert_eq!(
        report.snapshot.len as u64, N,
        "drained inserts missing from final snapshot"
    );
    assert!(report.info.contains("commands:"));
}

#[test]
fn a_pipeline_longer_than_one_read_is_answered_in_order() {
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr());

    // ≈ 100 KB of requests in one flush before the first reply is read:
    // the server takes them in several 16 KB reads and answers each read
    // before the next.
    const N: u64 = 2_000;
    for k in 0..N {
        client.send(&["SET", &k.to_string(), &(k * 3).to_string()]);
    }
    for k in 0..N {
        client.send(&["GET", &k.to_string()]);
    }
    client.flush();
    for k in 0..N {
        assert_eq!(client.recv(), R::Simple("OK".into()), "SET {k}");
    }
    for k in 0..N {
        assert_eq!(client.recv(), R::Bulk(Some((k * 3).to_string())), "GET {k}");
    }

    server.shutdown();
    server.join();
}

#[test]
fn immediate_replies_keep_their_place_in_a_pipeline() {
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr());

    client.send(&["SET", "1", "10"]);
    client.send(&["PING"]);
    client.send(&["GET", "1"]);
    client.send(&["NOSUCHCOMMAND"]);
    client.send(&["INFO"]);
    client.send(&["GET", "1"]);
    client.flush();
    assert_eq!(client.recv(), R::Simple("OK".into()));
    assert_eq!(client.recv(), R::Simple("PONG".into()));
    assert_eq!(client.recv(), R::Bulk(Some("10".into())));
    assert!(
        matches!(client.recv(), R::Error(e) if e.starts_with("ERR unknown command")),
        "unknown command"
    );
    assert!(
        matches!(client.recv(), R::Bulk(Some(info)) if info.contains("# server")),
        "INFO"
    );
    assert_eq!(client.recv(), R::Bulk(Some("10".into())));

    server.shutdown();
    server.join();
}
