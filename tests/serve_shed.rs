//! Load-shedding boundary tests for the reactor server: admission
//! control must refuse with an explicit `shed` error frame — never a
//! hang — at the exact connection-budget and accept-backlog edges, the
//! refusals must be visible in `stats`, and a shed client retrying with
//! backoff must get in once load drops. Pipelined batches must answer
//! in order under both envelope versions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use plt::serve::{
    bootstrap, serve, BuilderConfig, Client, ClientConfig, FaultConfig, FaultPlan, Request,
    RetryPolicy, ServerConfig,
};

fn warmup() -> Vec<Vec<u32>> {
    (0..16).map(|_| vec![1, 2, 3]).collect()
}

fn start_reactor(config: ServerConfig) -> (plt::serve::ServerHandle, plt::serve::BuilderHandle) {
    let (engine, builder) = bootstrap(
        &warmup(),
        BuilderConfig {
            window_capacity: 64,
            min_support: 2,
            ..BuilderConfig::default()
        },
    )
    .expect("bootstrap");
    let handle = serve("127.0.0.1:0", engine, Some(builder.queue()), config).expect("bind");
    (handle, builder)
}

/// Reads one `<len>\n<payload>\n` frame off a raw socket.
fn read_raw_frame(r: &mut impl BufRead) -> Option<String> {
    let mut header = String::new();
    if r.read_line(&mut header).ok()? == 0 {
        return None;
    }
    let len: usize = header.trim().parse().ok()?;
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload).ok()?;
    payload.pop();
    String::from_utf8(payload).ok()
}

/// Connects and reads whatever frame the server volunteers (a shed
/// refusal), with a bounded wait — a hang here is the failure mode this
/// suite exists to catch. `None` means the connection was admitted (no
/// refusal arrived within the wait) or closed silently.
fn connect_expecting_shed(addr: std::net::SocketAddr, wait: Duration) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(wait)).unwrap();
    let mut reader = BufReader::new(stream);
    read_raw_frame(&mut reader)
}

#[cfg(target_os = "linux")]
#[test]
fn the_connection_budget_edge_sheds_exactly_past_the_cap() {
    let cap = 4;
    let (handle, builder) = start_reactor(ServerConfig {
        reactors: 1,
        max_connections: cap,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Exactly `cap` clients all get in and all work.
    let mut residents: Vec<Client> = (0..cap)
        .map(|i| {
            let mut c = Client::with_config(
                addr,
                ClientConfig {
                    retry: RetryPolicy::none(),
                    ..ClientConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("resident {i} refused under the cap: {e}"));
            assert_eq!(c.ping().expect("resident ping"), 1);
            c
        })
        .collect();

    // The cap+1'th is shed with the budget message — an answer, not a
    // hang, and not a silent close.
    let frame =
        connect_expecting_shed(addr, Duration::from_secs(5)).expect("shed frame, not silence");
    assert!(frame.contains("\"ok\":false"), "{frame}");
    assert!(
        frame.contains("shed: server at connection capacity"),
        "wrong shed reason: {frame}"
    );

    // The refusal is visible in stats, from a resident's connection.
    let stats = residents[0].stats().expect("stats");
    let reactor = stats.get("reactor").expect("reactor stats");
    assert!(
        reactor
            .get("shed_connections")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1,
        "shed not counted: {stats}"
    );
    assert!(
        stats
            .get("rejected_connections")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1
    );

    // Dropping one resident frees budget; a shed-aware client retrying
    // with backoff succeeds once the load drops.
    drop(residents.pop());
    let mut late = None;
    for _ in 0..50 {
        if let Ok(mut c) = Client::with_config(
            addr,
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 6,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(50),
                    jitter_seed: 7,
                },
                ..ClientConfig::default()
            },
        ) {
            if c.ping().is_ok() {
                late = Some(c);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(late.is_some(), "budget never freed after a resident left");

    drop(residents);
    drop(late);
    handle.shutdown();
    builder.stop();
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_accept_backlog_sheds_instead_of_queueing() {
    // One reactor and a one-slot handoff queue. A held fault plan parks
    // the reactor inside its next I/O call, so it cannot drain accepted
    // sockets: the first burst connection fills the queue and the
    // dispatching acceptor must shed the rest — not block, not queue
    // unboundedly.
    let plan = FaultPlan::shared(FaultConfig::disabled(0xBAC0));
    let (handle, builder) = start_reactor(ServerConfig {
        reactors: 1,
        accept_backlog: 1,
        max_connections: 1024,
        fault: Some(plan.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Park the reactor: a byte from this peer sends it into a read,
    // where the held plan stops it until released.
    plan.hold_io();
    let mut busy = TcpStream::connect(addr).expect("first connect");
    busy.write_all(b"1")
        .expect("poke the reactor into a parked read");
    assert!(
        plan.wait_parked(Duration::from_secs(10)),
        "reactor never reached its read"
    );

    // Open the whole burst before reading any reply, so the backlog is
    // full while the reactor is parked. Shed frames come straight off
    // the acceptor thread; the one admitted socket gets no reply, and a
    // short read window lets it give up quickly.
    let burst: Vec<TcpStream> = (0..12)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("burst connect {i}: {e}")))
        .collect();
    let mut sheds = 0;
    for stream in burst {
        stream
            .set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        if let Some(frame) = read_raw_frame(&mut BufReader::new(stream)) {
            assert!(
                frame.contains("shed: accept backlog full"),
                "unexpected refusal: {frame}"
            );
            sheds += 1;
        }
    }
    assert!(sheds >= 1, "backlog edge never shed under a parked reactor");

    plan.release_io();
    drop(busy);
    handle.shutdown();
    builder.stop();
}

#[cfg(target_os = "linux")]
#[test]
fn pipelined_batches_answer_in_order() {
    for version in [1u64, 2] {
        let (handle, builder) = start_reactor(ServerConfig {
            reactors: 1,
            ..ServerConfig::default()
        });

        let mut client = Client::with_config(
            handle.addr(),
            ClientConfig {
                protocol_version: version,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        // A mixed batch: point queries, a bad request in the middle (it
        // must not abort the batch), and more queries after it.
        let mut requests: Vec<Request> = Vec::new();
        for i in 0..32 {
            requests.push(Request::Support {
                items: if i % 2 == 0 {
                    vec![1, 2]
                } else {
                    vec![1, 2, 3]
                },
            });
        }
        requests.insert(
            16,
            Request::Extensions {
                items: vec![],
                k: 0,
            },
        );

        let replies = client.pipeline(&requests, 8).expect("pipeline transport");
        assert_eq!(replies.len(), requests.len());
        for (i, reply) in replies.iter().enumerate() {
            match (&requests[i], reply) {
                (Request::Support { .. }, Ok(v)) => {
                    // All 16 warmup baskets are {1,2,3}, so every
                    // queried subset has support 16.
                    assert_eq!(
                        v.get("support").and_then(|s| s.as_u64()),
                        Some(16),
                        "v{version}: reply {i} out of order or wrong"
                    );
                }
                (Request::Extensions { .. }, _) => {
                    // Empty-itemset extensions may answer or error by
                    // protocol rules; either way it lands at position 16.
                }
                (req, Err(e)) => panic!("v{version}: {req:?} failed: {e}"),
                _ => {}
            }
        }

        client.shutdown().expect("shutdown");
        handle.join();
        builder.stop();
    }
}
