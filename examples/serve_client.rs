//! A loopback client for `hems-serve`: spins up the planning service
//! in-process (or connects to `HEMS_SERVE_ADDR` if set), asks one of each
//! plan query against the paper's baseline system at half sun, prints the
//! answers, then checks the cache with a repeat query and shuts the
//! server down gracefully.
//!
//! ```text
//! cargo run --example serve_client
//! HEMS_SERVE_ADDR=127.0.0.1:7878 cargo run --example serve_client   # external server
//! ```

use hems_serve::json::{parse, Value};
use hems_serve::proto::{QueryKind, Request, ScenarioSpec};
use hems_serve::wire::exchange;
use hems_serve::{serve, ServeConfig};
use std::io::BufReader;
use std::net::TcpStream;

fn ask(
    conn: &mut BufReader<TcpStream>,
    id: i64,
    kind: QueryKind,
    spec: Option<&ScenarioSpec>,
) -> Value {
    let line = Request::render_line(id, kind, spec);
    let response = exchange(conn, &line, 1 << 20).expect("server answers");
    parse(&response).expect("server speaks JSON")
}

fn show(name: &str, response: &Value) {
    let cached = response
        .get("cached")
        .and_then(Value::as_bool)
        .map_or("", |c| if c { " (cached)" } else { "" });
    match response.get("status").and_then(Value::as_str) {
        Some("ok") => println!(
            "{name:>14}{cached}: {}",
            response
                .get("result")
                .map(Value::render)
                .unwrap_or_default()
        ),
        _ => println!("{name:>14}: {}", response.render()),
    }
}

fn main() {
    // An external server wins when named; otherwise run one in-process on
    // an ephemeral port.
    let external = std::env::var("HEMS_SERVE_ADDR").ok();
    let mut local = None;
    let addr = match &external {
        Some(addr) => addr.clone(),
        None => {
            let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
            let addr = handle.addr().to_string();
            println!("started in-process hems-serve on {addr}");
            local = Some(handle);
            addr
        }
    };
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);

    // The paper's baseline board at half sun, with a 20 ms deadline for
    // the sprint planner.
    let mut spec = ScenarioSpec::baseline(0.5);
    spec.deadline = Some(0.02);
    println!("scenario: baseline system, irradiance 0.5, 20 ms deadline\n");

    let plan_kinds = [
        ("optimal_point", QueryKind::OptimalPoint),
        ("mep", QueryKind::Mep),
        ("bypass", QueryKind::Bypass),
        ("sprint", QueryKind::Sprint),
        ("sweep_summary", QueryKind::SweepSummary),
    ];
    for (i, (name, kind)) in plan_kinds.iter().enumerate() {
        let response = ask(&mut conn, i as i64, *kind, Some(&spec));
        show(name, &response);
    }

    // The repeat must come back from the plan cache.
    let repeat = ask(&mut conn, 100, QueryKind::Mep, Some(&spec));
    assert_eq!(
        repeat.get("cached").and_then(Value::as_bool),
        Some(true),
        "repeated query must hit the cache"
    );
    show("mep (repeat)", &repeat);

    let stats = ask(&mut conn, 101, QueryKind::Stats, None);
    show("stats", &stats);

    let bye = ask(&mut conn, 102, QueryKind::Shutdown, None);
    show("shutdown", &bye);
    if let Some(mut handle) = local {
        handle.wait();
        println!("\nserver drained and stopped");
    }
}
