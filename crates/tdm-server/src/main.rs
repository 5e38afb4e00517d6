//! The `tdm-server` binary: serve episode mining over TCP.
//!
//! ```text
//! tdm-server [--addr HOST:PORT] [--workers N] [--handlers N]
//!            [--tenant NAME:KEY[:RATE[:QUOTA]]]...
//! ```
//!
//! With no `--tenant`, a single `demo:demo` tenant (no limits) is created.
//! A RATE must be a finite number ≥ 0 (0 turns rate limiting off), nothing
//! may follow QUOTA, and no NAME may be given twice: any other spec prints
//! the usage block and exits 2 before binding.

use std::time::Duration;

use tdm_server::{Server, ServerConfig, TenantConfig};

fn main() {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    let mut tenants: Vec<TenantConfig> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = expect_value(&mut args, "--addr"),
            "--workers" => {
                config.service.workers = expect_value(&mut args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("--workers takes an integer"))
            }
            "--handlers" => {
                config.handler_threads = expect_value(&mut args, "--handlers")
                    .parse()
                    .unwrap_or_else(|_| usage("--handlers takes an integer"))
            }
            "--tenant" => {
                let tenant = parse_tenant(&expect_value(&mut args, "--tenant"));
                if tenants.iter().any(|t| t.name == tenant.name) {
                    usage(&format!("tenant {:?} is given twice", tenant.name));
                }
                tenants.push(tenant);
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if tenants.is_empty() {
        tenants.push(TenantConfig::new("demo", "demo"));
    }
    config.tenants = tenants;

    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("tdm-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("tdm-server listening on {}", server.addr());
    // Serve until killed; print a stats line periodically so an operator
    // sees throughput without speaking the protocol.
    loop {
        std::thread::sleep(Duration::from_secs(60));
        let stats = server.service().stats();
        let counters = server.counters();
        println!(
            "served={} failed={} rejected={} cancelled={} connections={} frames={} protocol_errors={}",
            stats.completed,
            stats.failed,
            stats.rejected,
            stats.cancelled,
            counters.connections,
            counters.frames,
            counters.protocol_errors,
        );
    }
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

/// `NAME:KEY[:RATE[:QUOTA]]` — e.g. `acme:s3cret:50:4`. The token bucket
/// reads a negative rate as no limit and a NaN or infinite one as a full
/// bucket on every check, so RATE must be a finite number ≥ 0.
fn parse_tenant(spec: &str) -> TenantConfig {
    let parts: Vec<&str> = spec.split(':').collect();
    let (name, key, rate, quota) = match parts[..] {
        [name, key] => (name, key, None, None),
        [name, key, rate] => (name, key, Some(rate), None),
        [name, key, rate, quota] => (name, key, Some(rate), Some(quota)),
        _ => usage(&format!("--tenant {spec:?} is not NAME:KEY[:RATE[:QUOTA]]")),
    };
    let mut tenant = TenantConfig::new(name, key);
    if let Some(rate) = rate {
        let rate = match rate.parse::<f64>() {
            Ok(rate) if rate.is_finite() && rate >= 0.0 => rate,
            _ => usage(&format!(
                "tenant RATE must be a finite number >= 0, got {rate:?}"
            )),
        };
        tenant = tenant.rate(rate, (rate / 2.0).max(1.0));
    }
    if let Some(quota) = quota {
        tenant = tenant.quota(
            quota
                .parse()
                .unwrap_or_else(|_| usage("tenant QUOTA must be an integer")),
        );
    }
    tenant
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("tdm-server: {problem}");
    }
    eprintln!(
        "usage: tdm-server [--addr HOST:PORT] [--workers N] [--handlers N] \
         [--tenant NAME:KEY[:RATE[:QUOTA]]]..."
    );
    std::process::exit(2);
}
