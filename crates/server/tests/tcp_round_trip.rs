//! Request/response latency over a loopback socket.
//!
//! Every protocol message is one small write answered by one small write.  If a message
//! left in two writes, Nagle's algorithm would hold the second until the peer's delayed ACK
//! (~40 ms on Linux), so 100 round trips would take 4 s or more.  The transport must also
//! turn Nagle off, which a loopback timing cannot show for messages this short.

use p2pgrid_server::tcp::{serve, TcpTransport};
use p2pgrid_server::{MasterConfig, Request, Response, Transport};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

#[test]
fn hundred_round_trips_finish_well_inside_one_delayed_ack_each() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let config = MasterConfig {
        heartbeat_timeout_ms: 60_000,
        retry_budget: 3,
        backoff_ms: 50,
    };
    let server = std::thread::spawn(move || serve(listener, config).expect("serve"));

    let stream = TcpStream::connect(addr).expect("client connects");
    // A clone shares the socket, so it sees the option `from_stream` sets.
    let probe = stream.try_clone().expect("clone stream");
    let mut transport = TcpTransport::from_stream(stream).expect("wrap stream");
    assert!(probe.nodelay().expect("read TCP_NODELAY"));

    let worker = match transport
        .call(&Request::Register {
            hostname: "latency-probe".into(),
        })
        .expect("register")
    {
        Response::Registered { worker, .. } => worker,
        other => panic!("unexpected response {other:?}"),
    };
    let start = Instant::now();
    for _ in 0..100 {
        let response = transport
            .call(&Request::Heartbeat { worker })
            .expect("heartbeat");
        assert_eq!(response, Response::Ok);
    }
    let elapsed = start.elapsed();

    assert_eq!(
        transport.call(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    drop(transport);
    server.join().expect("server thread");
    assert!(
        elapsed < Duration::from_secs(1),
        "100 round trips took {elapsed:?}"
    );
}
