//! `ServerHandle::shutdown` leaves no solver thread behind.
//!
//! Threads are counted by name from `/proc/self/task/*/comm`, so this
//! test lives in its own file: its own test binary, its own process, and
//! no other test's servers in the count.

#![cfg(target_os = "linux")]

use hems_serve::json::{parse, Value};
use hems_serve::proto::{QueryKind, Request, ScenarioSpec};
use hems_serve::{serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// This process's thread names. The kernel truncates each to 15 bytes
/// (`hems-serve-batch` reads `hems-serve-batc`).
fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

fn solver_threads() -> Vec<String> {
    thread_names()
        .into_iter()
        .filter(|name| name.starts_with("hems-pool-") || name.starts_with("hems-serve-batc"))
        .collect()
}

#[test]
fn shutdown_with_an_idle_client_leaves_no_solver_thread() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(2),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    // One client: served one miss, then idle and still connected.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let line = Request::render_line(1, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5)));
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let response = parse(&response).expect("response is JSON");
    assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
    assert!(
        thread_names().iter().any(|name| name == "hems-serve-conn"),
        "the idle client's connection thread is running: {:?}",
        thread_names()
    );

    handle.shutdown();
    let lingering = solver_threads();
    assert!(
        lingering.is_empty(),
        "solver threads outlived shutdown: {lingering:?}"
    );
    drop(stream);
}
