//! `shutdown` stops the server even while another client holds an idle
//! connection, over unix and over TCP.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use kcenter_metric::Euclidean;
use kcenter_serve::{run_server_on, RegistryConfig, ServeClient, ServeEndpoint, SessionRegistry};

fn socket_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kcenter-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.sock", std::process::id()))
}

/// A free loopback port, released for the server to bind.
fn free_tcp_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

/// Serves `endpoint`, holds one idle client, sends `shutdown` from a
/// second one, and asserts that the server returns within 5 s.
fn shutdown_with_an_idle_client(endpoint: ServeEndpoint) {
    let registry = SessionRegistry::new(
        Euclidean,
        RegistryConfig {
            tau: 8,
            ..RegistryConfig::default()
        },
        None,
    )
    .unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    let server = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let result = run_server_on(&[endpoint], registry);
            let _ = done_tx.send(());
            result
        })
    };
    let connect = || loop {
        let client = match &endpoint {
            ServeEndpoint::Unix(path) => ServeClient::connect(path),
            ServeEndpoint::Tcp(addr) => ServeClient::connect_tcp(addr),
        };
        match client {
            Ok(client) => break client,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let mut idle = connect();
    idle.request(&["ping".to_string()]).unwrap();
    let mut stopper = connect();
    stopper.shutdown().unwrap();
    assert!(
        done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
        "server still running 5 s after shutdown while a client is idle"
    );
    server.join().unwrap().unwrap();
    drop(idle);
}

#[test]
fn shutdown_ends_idle_unix_connections() {
    shutdown_with_an_idle_client(ServeEndpoint::Unix(socket_path("idle-shutdown")));
}

#[test]
fn shutdown_ends_idle_tcp_connections() {
    shutdown_with_an_idle_client(ServeEndpoint::Tcp(free_tcp_addr()));
}
