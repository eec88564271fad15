//! End-to-end tests of the serve daemon over a real socket: identical
//! requests must hit the content-addressed cache with byte-identical
//! plans, a poisoned request must be quarantined without killing the
//! daemon or its cache, the per-request deadline must cut runaway
//! plans, and the persisted cache must survive a restart.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Once;
use std::time::Duration;

use stp_core::serve::{journal_path, PlanCache, ServeConfig, Server, CACHE_SIG};

/// Silence the chaos fixture's deliberate rank panic (integration tests
/// cannot see the crate-internal hush hook).
fn hush() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("deliberate chaos panic") {
                default_hook(info);
            }
        }));
    });
}

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("stp-serve-test-{tag}-{}.json", std::process::id()));
    remove_store(&path);
    path
}

/// Delete a cache store: its snapshot and its journal.
fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(journal_path(path));
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to daemon");
        writer.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        response.trim_end().to_string()
    }
}

/// Start a daemon on an ephemeral port; returns the client address and
/// the join handle delivering the final stats JSON.
fn start_daemon(config: ServeConfig) -> (String, std::thread::JoinHandle<String>) {
    hush();
    let server = Server::bind(&config, None).expect("bind daemon");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

fn plan_of(response: &str) -> &str {
    response
        .split_once(",\"plan\":")
        .map(|(_, plan)| plan)
        .expect("response carries a plan")
}

#[test]
fn daemon_round_trip_cache_quarantine_and_persistence() {
    let cache_path = temp_path("roundtrip");
    let (addr, handle) = start_daemon(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_path: Some(cache_path.clone()),
        cache_cap: 64,
        workers: 2,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr);

    assert_eq!(
        client.request("{\"cmd\":\"ping\"}"),
        "{\"status\":\"ok\",\"pong\":true}"
    );

    // Identical requests: cold then cached, byte-identical plan bodies.
    let req = "{\"id\":\"q\",\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\
               \"dist\":\"equal\",\"s\":4,\"L\":256,\"algo\":\"Br_Lin\"}";
    let cold = client.request(req);
    let warm = client.request(req);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(
        plan_of(&cold),
        plan_of(&warm),
        "hit must replay byte-identically"
    );
    assert!(cold.contains("\"verified\":true"), "{cold}");
    // The schedule summary is read off the recording: every kernel
    // event, and how many of them are sends and receive matches.
    assert!(
        cold.contains("\"schedule\":{\"events\":176,\"sends\":32,\"recvs\":32}"),
        "{cold}"
    );

    // A second connection shares the same cache.
    let mut other = Client::connect(&addr);
    let warm2 = other.request(req);
    assert!(warm2.contains("\"cached\":true"), "{warm2}");
    assert_eq!(plan_of(&cold), plan_of(&warm2));

    // `auto` resolves to the same algorithm and thus the same entry:
    // recommend() picks Br_xy_source on a 4x4 (p = 16 is not > 16).
    let auto = client.request(
        "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"equal\",\
         \"s\":4,\"L\":256,\"algo\":\"auto\"}",
    );
    let explicit = client.request(
        "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"equal\",\
         \"s\":4,\"L\":256,\"algo\":\"Br_xy_source\"}",
    );
    assert!(auto.contains("\"cached\":false"), "{auto}");
    assert!(explicit.contains("\"cached\":true"), "{explicit}");

    // A poisoned request is quarantined; the daemon and cache live on.
    let chaos = client.request(
        "{\"id\":\"boom\",\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\
         \"dist\":\"equal\",\"s\":2,\"L\":64,\"algo\":\"chaos:panic\"}",
    );
    assert!(chaos.contains("\"status\":\"error\""), "{chaos}");
    assert!(chaos.contains("\"quarantined\":true"), "{chaos}");
    let after = client.request(req);
    assert!(
        after.contains("\"cached\":true"),
        "daemon must keep serving: {after}"
    );

    // Malformed input: one clean error response, connection stays up.
    let bad = client.request("{{{{");
    assert!(bad.contains("\"status\":\"error\""), "{bad}");
    assert_eq!(
        client.request("{\"cmd\":\"ping\"}"),
        "{\"status\":\"ok\",\"pong\":true}"
    );

    // Shutdown flushes the cache; stats confirm the quarantine count.
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"quarantined\":1"), "{stats}");
    let shut = client.request("{\"cmd\":\"shutdown\"}");
    assert!(shut.contains("\"shutdown\":true"), "{shut}");
    let final_stats = handle.join().expect("daemon thread");
    assert!(final_stats.contains("\"hits\":"), "{final_stats}");

    // The persisted store replays the plans after a restart.
    let reopened = PlanCache::open(Some(cache_path.clone()), 64);
    assert_eq!(reopened.len(), 2, "both planned points persisted");
    remove_store(&cache_path);
}

/// Everything after a reply's `"id"`, with `"cached"` normalised: the
/// part that must be byte-identical for one key whoever asked and
/// whether or not it was a hit.
fn after_id(reply: &str) -> String {
    let (_, rest) = reply
        .split_once("\",\"status\":")
        .expect("reply has an id then a status");
    rest.replacen("\"cached\":false", "\"cached\":true", 1)
}

#[test]
fn concurrent_clients_get_their_own_replies_from_one_cache() {
    const PLANS: [&str; 6] = [
        "\"rows\":4,\"cols\":4,\"dist\":\"equal\",\"s\":4,\"L\":256,\"algo\":\"Br_Lin\"",
        "\"rows\":4,\"cols\":4,\"dist\":\"row\",\"s\":4,\"L\":512,\"algo\":\"Br_xy_source\"",
        "\"rows\":8,\"cols\":4,\"dist\":\"cross\",\"s\":8,\"L\":128,\"algo\":\"2-Step\"",
        "\"rows\":8,\"cols\":4,\"dist\":\"diag_right\",\"s\":8,\"L\":1024,\"algo\":\"PersAlltoAll\"",
        "\"rows\":4,\"cols\":4,\"dist\":\"band\",\"s\":6,\"L\":64,\"algo\":\"auto\"",
        "\"rows\":4,\"cols\":4,\"ports\":5,\"dist\":\"equal\",\"s\":4,\"L\":256,\"algo\":\"KPort_Lin\"",
    ];
    const MALFORMED: &str = "{\"machine\":";
    const CHAOS: &str =
        "\"rows\":4,\"cols\":4,\"dist\":\"equal\",\"s\":2,\"L\":64,\"algo\":\"chaos:panic\"";
    // Each plan twice, the repeat after its first ask, hostile lines between.
    #[derive(Clone, Copy)]
    enum Line {
        Plan(usize),
        Malformed,
        Chaos,
    }
    use Line::*;
    let mix = [
        Plan(0),
        Plan(1),
        Malformed,
        Plan(0),
        Plan(2),
        Plan(3),
        Plan(1),
        Chaos,
        Plan(4),
        Plan(2),
        Plan(5),
        Plan(3),
        Plan(4),
        Plan(5),
    ];
    let plan_line =
        |id: &str, body: &str| format!("{{\"id\":\"{id}\",\"machine\":\"paragon\",{body}}}");

    let cache_path = temp_path("concurrent");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_path: Some(cache_path.clone()),
        cache_cap: 64,
        workers: 2,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let (addr, handle) = start_daemon(config.clone());
    let clients = 4;
    let start = std::sync::Barrier::new(clients);
    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, start, mix) = (&addr, &start, &mix);
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let id = format!("client-{c}");
                    start.wait();
                    mix.iter()
                        .map(|line| match *line {
                            Plan(k) => client.request(&plan_line(&id, PLANS[k])),
                            Malformed => client.request(MALFORMED),
                            Chaos => client.request(&plan_line(&id, CHAOS)),
                        })
                        .collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // Every reply went to the connection that asked, and one key reads
    // the same on every connection, cold or cached.
    let mut first: [Option<String>; PLANS.len()] = Default::default();
    for (c, replies) in replies.iter().enumerate() {
        let own = format!("{{\"id\":\"client-{c}\",\"status\":");
        let mut asked = [false; PLANS.len()];
        for (line, reply) in mix.iter().zip(replies) {
            match *line {
                Plan(k) => {
                    assert!(reply.starts_with(&own), "client {c}, plan {k}: {reply}");
                    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
                    if asked[k] {
                        assert!(reply.contains("\"cached\":true"), "repeat: {reply}");
                    }
                    asked[k] = true;
                    let body = after_id(reply);
                    let want = first[k].get_or_insert_with(|| body.clone());
                    assert_eq!(body, *want, "client {c}, plan {k}");
                }
                Malformed => {
                    assert!(
                        reply.starts_with("{\"id\":\"\",\"status\":\"error\""),
                        "{reply}"
                    );
                    assert!(reply.contains("\"quarantined\":false"), "{reply}");
                }
                Chaos => {
                    assert!(reply.starts_with(&own), "client {c}, chaos: {reply}");
                    assert!(reply.contains("\"status\":\"error\""), "{reply}");
                    assert!(reply.contains("\"quarantined\":true"), "{reply}");
                }
            }
        }
    }

    // The daemon lives on; the hostile lines were the only errors.
    let mut after = Client::connect(&addr);
    assert_eq!(
        after.request("{\"cmd\":\"ping\"}"),
        "{\"status\":\"ok\",\"pong\":true}"
    );
    let stats = after.request("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"quarantined\":4,\"errors\":4,"), "{stats}");
    after.request("{\"cmd\":\"shutdown\"}");
    handle.join().expect("daemon thread");

    // A fresh daemon on the flushed cache answers every key cached,
    // byte-identical to what the clients saw.
    let (addr, handle) = start_daemon(config);
    let mut client = Client::connect(&addr);
    for (k, plan) in PLANS.iter().enumerate() {
        let reply = client.request(&plan_line("restart", plan));
        assert!(reply.contains("\"cached\":true"), "{reply}");
        assert_eq!(Some(after_id(&reply)), first[k], "plan {k} after restart");
    }
    client.request("{\"cmd\":\"shutdown\"}");
    handle.join().expect("daemon thread");
    remove_store(&cache_path);
}

#[test]
fn per_request_deadline_cuts_runaway_plans() {
    let (addr, handle) = start_daemon(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_path: None,
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr);
    // 1 ms is far below any 16x16 cold plan; the deadline must fire and
    // the response must be an error, not a hung daemon.
    let response = client.request(
        "{\"id\":\"slow\",\"machine\":\"paragon\",\"rows\":16,\"cols\":16,\
         \"dist\":\"equal\",\"s\":64,\"L\":16384,\"algo\":\"Br_Lin\",\"deadline_ms\":1}",
    );
    assert!(response.contains("\"status\":\"error\""), "{response}");
    // The daemon still serves fresh work afterwards.
    let ok = client.request(
        "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"equal\",\
         \"s\":4,\"L\":64,\"algo\":\"Br_Lin\"}",
    );
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    client.request("{\"cmd\":\"shutdown\"}");
    handle.join().expect("daemon thread");
}

#[test]
fn a_request_carrying_exec_is_rejected_by_name_and_the_daemon_lives_on() {
    let (addr, handle) = start_daemon(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr);
    let plan = "\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"equal\",\
                \"s\":4,\"L\":64,\"algo\":\"Br_Lin\"";
    // Any value: the old names, a typo, not even a string.
    for value in ["\"threaded\"", "\"coop\"", "\"treaded\"", "7", "null"] {
        let reply = client.request(&format!("{{{plan},\"exec\":{value}}}"));
        assert!(reply.contains("\"status\":\"error\""), "{value}: {reply}");
        assert!(reply.contains("\\\"exec\\\""), "{value}: {reply}");
        assert!(reply.contains("\"quarantined\":false"), "{value}: {reply}");
    }
    // Same connection, same request without the field: it plans.
    let ok = client.request(&format!("{{{plan}}}"));
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    assert!(ok.contains("\"exec\":\"cooperative\""), "{ok}");
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"errors\":5"), "{stats}");
    assert!(stats.contains("\"planned\":1"), "{stats}");
    client.request("{\"cmd\":\"shutdown\"}");
    handle.join().expect("daemon thread");
}

#[test]
fn corrupt_cache_store_starts_fresh_and_reseals() {
    let cache_path = temp_path("corrupt");
    std::fs::write(&cache_path, "garbage, not a checkpoint").unwrap();
    let (addr, handle) = start_daemon(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_path: Some(cache_path.clone()),
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr);
    let req = "{\"machine\":\"paragon\",\"rows\":4,\"cols\":4,\"dist\":\"row\",\
               \"s\":4,\"L\":128,\"algo\":\"Br_Lin\"}";
    assert!(client.request(req).contains("\"cached\":false"));
    assert!(client.request(req).contains("\"cached\":true"));
    client.request("{\"cmd\":\"shutdown\"}");
    handle.join().expect("daemon thread");
    // The rewritten store is now a valid, correctly-signed checkpoint.
    let cp = stp_core::checkpoint::Checkpoint::load(&cache_path)
        .expect("read cache")
        .expect("cache parses after reseal");
    assert_eq!(cp.sig(), CACHE_SIG);
    // A clean shutdown compacts: everything is in the snapshot.
    assert_eq!(std::fs::read(journal_path(&cache_path)).unwrap(), b"");
    assert_eq!(PlanCache::open(Some(cache_path.clone()), 16).len(), 1);
    remove_store(&cache_path);
}
