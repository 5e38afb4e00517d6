//! Tenants: API keys, token-bucket rate limits, and in-flight quotas.
//!
//! Every wire request names a tenant and presents its API key. Past
//! authentication, two per-tenant gates bound what one tenant can do to the
//! shared service:
//!
//! * a **token bucket** (requests per second with a burst allowance) —
//!   refilled lazily on each check, no background thread;
//! * an **in-flight quota** — a per-tenant counter, taken by compare-exchange
//!   while it is under the quota and released when the request's
//!   [`QuotaPermit`] drops. It never queues: a tenant at its quota is refused
//!   *immediately* (with a retry hint), and can never occupy more of the
//!   service's global waiting room than its quota allows. Tenant A
//!   saturating its own quota therefore cannot starve tenant B: B's requests
//!   reach the global gate regardless of A's backlog.
//!
//! Both gates return typed denials that map 1:1 onto wire error codes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::wire::{retry_after_hint, RETRY_FLOOR_MS};

/// One tenant's standing configuration.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// The tenant's wire name (`"tenant"` field of every request).
    pub name: String,
    /// The shared secret presented as `"api_key"`.
    pub api_key: String,
    /// Sustained request rate in requests/second; `0.0` disables rate
    /// limiting for this tenant.
    pub rate_per_sec: f64,
    /// Bucket capacity: how many requests may burst after idling. Floored
    /// at 1.0 when rate limiting is on.
    pub burst: f64,
    /// Concurrent in-flight mining requests allowed; `0` means unlimited.
    pub max_in_flight: usize,
}

impl TenantConfig {
    /// A tenant with no rate limit and no quota.
    pub fn new(name: impl Into<String>, api_key: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            api_key: api_key.into(),
            rate_per_sec: 0.0,
            burst: 0.0,
            max_in_flight: 0,
        }
    }

    /// Sets the token-bucket rate and burst.
    pub fn rate(mut self, per_sec: f64, burst: f64) -> Self {
        self.rate_per_sec = per_sec;
        self.burst = burst;
        self
    }

    /// Sets the in-flight quota.
    pub fn quota(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }
}

/// Why a tenant gate refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Denial {
    /// No tenant registered under that name.
    UnknownTenant,
    /// The API key did not match.
    BadKey,
    /// The token bucket is empty.
    RateLimited {
        /// When the next token lands, in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant is at its in-flight quota.
    QuotaExhausted {
        /// Requests this tenant currently has in flight.
        in_flight: usize,
        /// The configured quota.
        quota: usize,
    },
}

/// Constant-time key equality. Ordinary `==` short-circuits at the first
/// mismatching byte — a timing side channel that can leak key prefixes, and
/// that would undercut keeping `UnknownTenant`/`BadKey` indistinguishable
/// on the wire. Both keys are folded into fixed-width FNV-1a lanes and the
/// lanes compared with one XOR-accumulate, so the comparison does the same
/// work wherever (and whether) the keys differ; each key's digest cost
/// depends only on that key's own length.
fn keys_match(expected: &str, presented: &str) -> bool {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn digest(key: &str) -> [u64; 4] {
        // Four lanes with distinct offset bases: 256 digest bits, so an
        // accidental lane collision is not a practical concern.
        let mut lanes: [u64; 4] = [
            0xcbf2_9ce4_8422_2325,
            0x9ae1_6a3b_2f90_404f,
            0x6c62_272e_07bb_0142,
            0x27d4_eb2f_1656_67c5,
        ];
        for &byte in key.as_bytes() {
            for lane in &mut lanes {
                *lane = (*lane ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        // Fold the length in so the digest is not purely byte-stream-based.
        for lane in &mut lanes {
            *lane = (*lane ^ key.len() as u64).wrapping_mul(FNV_PRIME);
        }
        lanes
    }
    let (a, b) = (digest(expected), digest(presented));
    let mut diff = 0u64;
    for i in 0..4 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

#[derive(Debug)]
struct Tenant {
    config: TenantConfig,
    bucket: Mutex<Bucket>,
    /// Requests holding a quota slot; stays 0 for a tenant without a quota.
    in_flight: AtomicUsize,
}

/// A mining request's hold on its tenant's quota; dropping it releases the
/// slot.
#[derive(Debug)]
pub struct QuotaPermit<'a> {
    /// The tenant's in-flight counter, or `None` for a tenant without a
    /// quota.
    slot: Option<&'a AtomicUsize>,
}

impl Drop for QuotaPermit<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            slot.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The set of tenants a server was configured with.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: Vec<Tenant>,
}

impl TenantRegistry {
    /// Builds the registry. Later duplicates of a name are unreachable (the
    /// first match wins), mirroring object-key lookup on the wire.
    pub fn new(configs: Vec<TenantConfig>) -> Self {
        let tenants = configs
            .into_iter()
            .map(|config| Tenant {
                bucket: Mutex::new(Bucket {
                    tokens: config.burst.max(1.0),
                    refilled: Instant::now(),
                }),
                in_flight: AtomicUsize::new(0),
                config,
            })
            .collect();
        TenantRegistry { tenants }
    }

    fn find(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.config.name == name)
    }

    /// Checks the tenant exists and the key matches. No token is consumed.
    pub fn authenticate(&self, name: &str, api_key: &str) -> Result<(), Denial> {
        let tenant = self.find(name).ok_or(Denial::UnknownTenant)?;
        if keys_match(&tenant.config.api_key, api_key) {
            Ok(())
        } else {
            Err(Denial::BadKey)
        }
    }

    /// Consumes one rate-limit token, refilling the bucket from wall time
    /// first. Call only after [`TenantRegistry::authenticate`].
    pub fn take_token(&self, name: &str) -> Result<(), Denial> {
        let tenant = self.find(name).ok_or(Denial::UnknownTenant)?;
        if tenant.config.rate_per_sec <= 0.0 {
            return Ok(());
        }
        let cap = tenant.config.burst.max(1.0);
        let mut bucket = tenant.bucket.lock().expect("token bucket");
        let now = Instant::now();
        let refill = now.duration_since(bucket.refilled).as_secs_f64() * tenant.config.rate_per_sec;
        bucket.tokens = (bucket.tokens + refill).min(cap);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let wait_ms = (deficit / tenant.config.rate_per_sec * 1_000.0).ceil() as u64;
            Err(Denial::RateLimited {
                retry_after_ms: wait_ms.max(RETRY_FLOOR_MS),
            })
        }
    }

    /// Takes an in-flight quota slot, without ever queueing: a tenant at its
    /// quota is refused on the spot with a depth-scaled retry hint, so its
    /// backlog lives client-side, not in the shared waiting room.
    pub fn take_quota(&self, name: &str) -> Result<QuotaPermit<'_>, Denial> {
        let tenant = self.find(name).ok_or(Denial::UnknownTenant)?;
        let quota = tenant.config.max_in_flight;
        if quota == 0 {
            return Ok(QuotaPermit { slot: None });
        }
        let slot = &tenant.in_flight;
        match slot.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
            (held < quota).then_some(held + 1)
        }) {
            Ok(_) => Ok(QuotaPermit { slot: Some(slot) }),
            Err(in_flight) => Err(Denial::QuotaExhausted { in_flight, quota }),
        }
    }

    /// This tenant's current in-flight count (0 for unknown or unlimited
    /// tenants) — the idle-accounting hook the leak tests assert on.
    pub fn in_flight(&self, name: &str) -> usize {
        self.find(name)
            .map_or(0, |t| t.in_flight.load(Ordering::SeqCst))
    }

    /// Total in-flight requests across all quota-gated tenants.
    pub fn total_in_flight(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.in_flight.load(Ordering::SeqCst))
            .sum()
    }
}

impl Denial {
    /// The wire error code this denial maps to.
    pub fn code(&self) -> &'static str {
        match self {
            Denial::UnknownTenant | Denial::BadKey => crate::wire::codes::UNAUTHORIZED,
            Denial::RateLimited { .. } => crate::wire::codes::RATE_LIMITED,
            Denial::QuotaExhausted { .. } => crate::wire::codes::QUOTA,
        }
    }

    /// Renders the denial as a wire `"error"` value.
    pub fn to_value(&self) -> crate::json::Value {
        use crate::json::Value;
        let mut v = crate::wire::error_value(self.code(), self.message());
        if let Value::Object(pairs) = &mut v {
            match self {
                Denial::RateLimited { retry_after_ms } => {
                    pairs.push(("retry_after_ms".into(), Value::u64(*retry_after_ms)));
                }
                Denial::QuotaExhausted { in_flight, quota } => {
                    pairs.push(("in_flight".into(), Value::u64(*in_flight as u64)));
                    pairs.push(("quota".into(), Value::u64(*quota as u64)));
                    pairs.push((
                        "retry_after_ms".into(),
                        Value::u64(retry_after_hint(*in_flight)),
                    ));
                }
                _ => {}
            }
        }
        v
    }

    fn message(&self) -> String {
        match self {
            // One message for both auth failures: the wire must not disclose
            // whether a tenant name exists.
            Denial::UnknownTenant | Denial::BadKey => "unknown tenant or bad api_key".into(),
            Denial::RateLimited { retry_after_ms } => {
                format!("rate limit exceeded; retry in {retry_after_ms}ms")
            }
            Denial::QuotaExhausted { in_flight, quota } => {
                format!("in-flight quota exhausted ({in_flight}/{quota})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TenantRegistry {
        TenantRegistry::new(vec![
            TenantConfig::new("acme", "key-a").rate(10.0, 2.0).quota(2),
            TenantConfig::new("beta", "key-b"),
        ])
    }

    #[test]
    fn authentication_does_not_disclose_which_part_failed() {
        let reg = registry();
        assert_eq!(reg.authenticate("acme", "key-a"), Ok(()));
        let wrong_key = reg.authenticate("acme", "nope").unwrap_err();
        let wrong_tenant = reg.authenticate("ghost", "key-a").unwrap_err();
        assert_eq!(wrong_key.code(), wrong_tenant.code());
        assert_eq!(
            wrong_key.to_value().get("message"),
            wrong_tenant.to_value().get("message")
        );
    }

    #[test]
    fn key_comparison_is_exact_across_lengths_and_prefixes() {
        let reg = TenantRegistry::new(vec![TenantConfig::new("acme", "correct-horse")]);
        assert_eq!(reg.authenticate("acme", "correct-horse"), Ok(()));
        // Prefixes, extensions, near-misses, and the empty key all fail —
        // the digest comparison must not be fooled by shared prefixes.
        for wrong in [
            "",
            "c",
            "correct-hors",
            "correct-horsE",
            "correct-horse ",
            "correct-horse-battery",
            "battery-staple",
        ] {
            assert_eq!(
                reg.authenticate("acme", wrong),
                Err(Denial::BadKey),
                "{wrong:?}"
            );
        }
    }

    #[test]
    fn token_bucket_allows_burst_then_throttles_with_a_hint() {
        let reg = registry();
        // Burst of 2: two immediate requests pass, the third is throttled.
        assert!(reg.take_token("acme").is_ok());
        assert!(reg.take_token("acme").is_ok());
        match reg.take_token("acme").unwrap_err() {
            Denial::RateLimited { retry_after_ms } => {
                // 10 req/s ⇒ the next token is at most 100ms away, and the
                // hint is never below the floor.
                assert!(
                    (RETRY_FLOOR_MS..=100).contains(&retry_after_ms),
                    "{retry_after_ms}"
                );
            }
            other => panic!("wrong denial: {other:?}"),
        }
        // An unlimited tenant is never throttled.
        for _ in 0..100 {
            assert!(reg.take_token("beta").is_ok());
        }
    }

    #[test]
    fn quota_is_per_tenant_and_releases_on_drop() {
        let reg = registry();
        let a1 = reg.take_quota("acme").unwrap();
        let _a2 = reg.take_quota("acme").unwrap();
        assert_eq!(reg.in_flight("acme"), 2);
        // acme is full…
        match reg.take_quota("acme").unwrap_err() {
            Denial::QuotaExhausted { in_flight, quota } => {
                assert_eq!((in_flight, quota), (2, 2));
            }
            other => panic!("wrong denial: {other:?}"),
        }
        // …but beta is untouched by acme's saturation.
        let _b = reg.take_quota("beta").unwrap();
        // Dropping a permit frees the slot.
        drop(a1);
        assert_eq!(reg.in_flight("acme"), 1);
        assert!(reg.take_quota("acme").is_ok());
        assert_eq!(reg.total_in_flight(), 1);
    }
}
