//! Loopback integration test: a real server on an ephemeral port, driven
//! through real TCP sockets, proving the acceptance criteria end to end —
//! cache-identical results, append-driven invalidation, single-flight
//! coalescing, busy-not-panic under a full queue, and clean shutdown.

use std::net::TcpStream;
use std::time::Duration;

use valmod_data::generators::plant_motif;
use valmod_serve::engine::{EngineConfig, QueryEngine, QueryKind, QuerySpec};
use valmod_serve::{Client, Request, ServeError, Server, Value};

fn start_server(cfg: EngineConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", QueryEngine::new(cfg)).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

#[test]
fn full_protocol_roundtrip() {
    let (addr, server) = start_server(
        EngineConfig::builder()
            .workers(2)
            .queue_depth(8)
            .cache_bytes(1 << 20)
            .default_deadline(Duration::from_secs(60))
            .build()
            .unwrap(),
    );
    let mut client =
        Client::with_timeouts(addr, Duration::from_secs(5), Duration::from_secs(120)).unwrap();
    client.ping().unwrap();

    // HELLO negotiates the protocol version and reports capabilities.
    let caps = client.hello(&["test-driver"]).unwrap();
    assert!(caps.contains(&"serve".to_string()), "server capabilities: {caps:?}");

    // LOAD with a hot length, keeping a holdout tail for APPEND.
    let (values, _) = plant_motif(1_200, 32, 2, 0.001, 23);
    let (head, tail) = values.split_at(1_000);
    let ack = client.load("sensor", head.to_vec(), vec![32], false).unwrap();
    assert_eq!((ack.name.as_str(), ack.version, ack.len), ("sensor", 1, 1_000));
    // Reloading without replace is an explicit error, not a clobber.
    let err = client.load("sensor", head.to_vec(), vec![], false).unwrap_err();
    assert!(matches!(err, ServeError::SeriesExists(_)), "got {err:?}");

    // Cold query, then cached query: identical typed bodies.
    let cold = client.motifs("sensor", 24, 40, 3).unwrap();
    assert!(!cold.cached && !cold.coalesced);
    let warm = client.motifs("sensor", 24, 40, 3).unwrap();
    assert!(warm.cached);
    assert_eq!(cold.body, warm.body, "cached result must be identical to the cold one");
    assert_eq!(cold.version, warm.version);
    assert!(!cold.body.motifs.is_empty());
    assert!(cold.body.motifs.iter().all(|m| (24..=40).contains(&m.l)));

    // APPEND bumps the version and invalidates the cached entry.
    let ack = client.append("sensor", tail.to_vec()).unwrap();
    assert_eq!((ack.version, ack.len), (2, 1_200));
    let after = client.motifs("sensor", 24, 40, 3).unwrap();
    assert!(!after.cached, "append must invalidate stale cache entries");
    assert_eq!(after.version, 2);
    // ...and the recomputed result is itself cached again.
    assert!(client.motifs("sensor", 24, 40, 3).unwrap().cached);

    // The hot length's fixed-length query parks its state pinned; after
    // another append the next query extends it instead of recomputing.
    let fixed = client.motifs("sensor", 32, 32, 1).unwrap();
    assert!(fixed.body.motifs.iter().all(|m| m.l == 32));
    client.append("sensor", head[..50].to_vec()).unwrap();
    client.motifs("sensor", 32, 32, 1).unwrap();
    let planner = client.stats().unwrap().get("planner").cloned().unwrap();
    assert_eq!(planner.get("pinned_states").and_then(Value::as_usize), Some(1));
    assert!(planner.get("fragments_extended").and_then(Value::as_usize).unwrap() >= 1);

    // Sets and discords answer over the same connection, typed.
    let sets = client.sets("sensor", 30, 34, 3, 3.0).unwrap();
    assert!(!sets.body.sets.is_empty());
    for s in &sets.body.sets {
        assert_eq!(s.frequency, s.offsets.len());
        assert!(s.radius >= s.pair_dist);
    }
    let discords = client.discords("sensor", 30, 34, 3).unwrap();
    assert!(discords.body.discords.iter().all(|d| (30..=34).contains(&d.l)));

    // A workload that defeats the lower bounds (random walk + noisy sine
    // tail, tiny p) to drive the engine through the full-recompute
    // fallback, so the observability section below has a fallback to show.
    let mut mixed = valmod_data::generators::random_walk(600, 1);
    mixed.extend_from_slice(&valmod_data::generators::sine_mixture(200, &[(0.1, 3.0)], 0.4, 2));
    client.load("mixed", mixed, vec![], false).unwrap();
    client
        .query(QuerySpec {
            series: "mixed".into(),
            kind: QueryKind::Motifs { top: 3 },
            l_min: 16,
            l_max: 48,
            p: 3,
            policy: valmod_mp::ExclusionPolicy::HALF,
            deadline: None,
        })
        .unwrap();

    // STATS reflects the story so far.
    let stats = client.stats().unwrap();
    let engine = stats.get("engine").unwrap();
    assert!(engine.get("queries").unwrap().as_usize().unwrap() >= 5);
    let cache = stats.get("cache").unwrap();
    assert!(cache.get("hits").unwrap().as_usize().unwrap() >= 2);
    assert!(cache.get("invalidated").unwrap().as_usize().unwrap() >= 1);
    let series = stats.get("series").unwrap().as_arr().unwrap();
    assert_eq!(series.len(), 2);
    let sensor = series.iter().find(|s| s.get("name").unwrap().as_str() == Some("sensor")).unwrap();
    assert_eq!(sensor.get("version").unwrap().as_usize(), Some(3));

    // The observability extension: the registry snapshot rides along in
    // "obs", reporting metrics from every layer of the stack.
    let obs = stats.get("obs").expect("STATS carries the obs registry snapshot");
    let counter = |key: &str| obs.get(key).and_then(Value::as_usize).unwrap_or(0);
    assert!(counter("serve.cache.hit") >= 2, "warm queries must show as cache hits");
    assert!(counter("serve.cache.miss") >= 1);
    assert!(counter("core.lb.fallback") >= 1, "the mixed workload must reach the fallback");
    assert!(counter("core.lb.valid_rows") > 0);
    assert!(counter("mp.stomp.rows") > 0);
    assert!(counter("serve.net.bytes_in") > 0);
    assert!(counter("serve.net.bytes_out") > 0);
    let wait = obs.get("serve.queue.wait_us").expect("queue wait histogram");
    assert!(wait.get("count").and_then(Value::as_usize).unwrap_or(0) > 0);
    assert!(wait.get("sum").unwrap().as_f64().unwrap() > 0.0);

    // A second STATS: per-command latencies are recorded after a command
    // finishes, so the first snapshot cannot contain its own stats timing.
    let stats = client.stats().unwrap();
    let obs = stats.get("obs").expect("obs snapshot");

    // Connection gauge: this client is connected right now.
    let active = obs.get("serve.conn.active").expect("connection gauge");
    assert!(active.as_f64().unwrap() >= 1.0, "one client is live, gauge says {active:?}");
    // Per-command latency histograms, keyed by cmd.
    for cmd in ["ping", "hello", "load", "append", "motifs", "sets", "discords", "stats"] {
        let hist = obs
            .get(&format!("serve.cmd.{cmd}_us"))
            .unwrap_or_else(|| panic!("missing per-command histogram for {cmd:?}"));
        assert!(
            hist.get("count").and_then(Value::as_usize).unwrap_or(0) > 0,
            "histogram for {cmd:?} must be nonzero"
        );
    }

    // Unknown series and malformed lines answer errors without dropping
    // the connection.
    let err = client.motifs("ghost", 16, 20, 1).unwrap_err();
    assert!(matches!(err, ServeError::UnknownSeries(_)), "got {err:?}");
    let err = client.roundtrip_value(&Value::str("not a request")).unwrap_err();
    assert!(matches!(err, ServeError::Protocol(_)));
    client.ping().unwrap();

    // Graceful shutdown: the server thread returns and the port closes.
    client.shutdown().unwrap();
    server.join().expect("server thread exits cleanly");
    assert!(TcpStream::connect(addr).is_err(), "port should be closed after graceful shutdown");
}

#[test]
fn identical_concurrent_queries_coalesce_over_tcp() {
    let (addr, server) = start_server(
        EngineConfig::builder()
            .workers(2)
            .queue_depth(8)
            .cache_bytes(1 << 20)
            .default_deadline(Duration::from_secs(300))
            .build()
            .unwrap(),
    );
    let mut client =
        Client::with_timeouts(addr, Duration::from_secs(5), Duration::from_secs(300)).unwrap();
    let (values, _) = plant_motif(1_600, 32, 2, 0.001, 41);
    client.load("s", values, vec![], false).unwrap();

    // Fire the leader, then wait until its flight is registered before
    // firing the followers, so they deterministically attach to it.
    let leader = std::thread::spawn(move || {
        let mut c =
            Client::with_timeouts(addr, Duration::from_secs(5), Duration::from_secs(300)).unwrap();
        c.motifs("s", 16, 40, 3).unwrap()
    });
    let t0 = std::time::Instant::now();
    loop {
        let stats = client.stats().unwrap();
        let inflight = stats
            .get("planner")
            .and_then(|p| p.get("inflight"))
            .and_then(Value::as_usize)
            .unwrap_or(0);
        if inflight >= 1 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(60), "leader flight never registered");
        std::thread::sleep(Duration::from_millis(2));
    }
    let followers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c =
                    Client::with_timeouts(addr, Duration::from_secs(5), Duration::from_secs(300))
                        .unwrap();
                c.motifs("s", 16, 40, 3).unwrap()
            })
        })
        .collect();

    let lead = leader.join().unwrap();
    assert!(!lead.cached && !lead.coalesced);
    for follower in followers {
        let reply = follower.join().unwrap();
        assert!(reply.coalesced, "follower must carry the coalesced marker");
        assert!(!reply.cached);
        assert_eq!(reply.body, lead.body, "coalesced replies must match the leader");
        assert_eq!(reply.version, lead.version);
    }

    let stats = client.stats_typed().unwrap();
    assert_eq!(stats.computed, 1, "one compute serves all four queries");
    assert_eq!(stats.coalesced, 3, "three followers attached to the flight");
    let obs = stats.raw.get("obs").expect("obs snapshot");
    assert_eq!(obs.get("serve.query.coalesced").and_then(Value::as_usize), Some(3));

    client.shutdown().unwrap();
    server.join().expect("clean shutdown after coalescing");
}

#[test]
fn full_queue_answers_busy_over_tcp() {
    let (addr, server) = start_server(
        EngineConfig::builder()
            .workers(1)
            .queue_depth(1)
            .cache_bytes(0)
            .default_deadline(Duration::from_secs(60))
            .build()
            .unwrap(),
    );
    // Occupy the single worker from one connection...
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sleep(600, None).unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...fill the one queue slot from a second...
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sleep(1, None).unwrap();
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...and observe load shedding on a third.
    let mut c = Client::connect(addr).unwrap();
    let err = c.sleep(1, None).unwrap_err();
    assert!(matches!(err, ServeError::Busy), "expected busy, got {err:?}");
    sleeper.join().unwrap();
    queued.join().unwrap();

    // A deadline shorter than the queue wait is reported as such.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sleep(400, None).unwrap();
    });
    std::thread::sleep(Duration::from_millis(100));
    let err = c.sleep(1, Some(Duration::from_millis(50))).unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded), "expected deadline, got {err:?}");
    slow.join().unwrap();

    let mut shut = Client::connect(addr).unwrap();
    shut.request(&Request::Shutdown).unwrap();
    server.join().expect("clean shutdown after shedding load");
}

#[test]
fn durable_server_recovers_series_across_restart() {
    let dir = std::env::temp_dir().join(format!("valmod_loopback_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = EngineConfig::builder()
        .workers(1)
        .queue_depth(8)
        .cache_bytes(1 << 20)
        .data_dir(dir.clone())
        .build()
        .unwrap();
    let (values, _) = plant_motif(1_000, 32, 2, 0.001, 31);
    let (head, tail) = values.split_at(900);
    // Byte-identity matters across the restart, so drive this query through
    // the raw escape hatch and compare the encoded bodies verbatim.
    let spec = || QuerySpec {
        series: "sensor".into(),
        kind: QueryKind::Motifs { top: 3 },
        l_min: 24,
        l_max: 40,
        p: 50,
        policy: valmod_mp::ExclusionPolicy::HALF,
        deadline: None,
    };

    // First server generation: ingest, SAVE, query, graceful shutdown.
    let (addr, server) = start_server(cfg.clone());
    let mut client = Client::connect(addr).unwrap();
    client.load("sensor", head.to_vec(), vec![], false).unwrap();
    client.append("sensor", tail[..60].to_vec()).unwrap();
    assert_eq!(client.save().unwrap().snapshots, 1, "one series, one snapshot");
    client.append("sensor", tail[60..].to_vec()).unwrap();
    // Variable-length query: cold-computed on both sides of the restart.
    let before = client.query(spec()).unwrap();
    client.shutdown().unwrap();
    server.join().expect("first generation exits cleanly");

    // Second generation over the same directory: the series is back —
    // version, length, and a byte-identical query body.
    let (addr, server) = start_server(cfg);
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("persist").unwrap().get("enabled").unwrap().as_bool(), Some(true));
    let series = stats.get("series").unwrap().as_arr().unwrap();
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].get("version").unwrap().as_usize(), Some(3));
    assert_eq!(series[0].get("len").unwrap().as_usize(), Some(1_000));
    let after = client.query(spec()).unwrap();
    assert_eq!(after.cached, Some(false), "the cache does not survive a restart");
    assert_eq!(
        after.result.get("body"),
        before.result.get("body"),
        "recovered data must answer queries identically"
    );
    client.shutdown().unwrap();
    server.join().expect("second generation exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
