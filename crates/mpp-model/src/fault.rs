//! Deterministic fault plans: seeded per-transfer drop/delay decisions,
//! timed link outages, node crashes, and bounded retransmission.
//!
//! A [`FaultPlan`] is pure data — no clocks, no RNG streams. Every
//! decision ("is attempt `k` of message `seq` dropped?") is a pure hash
//! of `(seed, seq, attempt)`, so the same plan produces bit-identical
//! fault behaviour on any executor and any host, and is independent of
//! the order in which the simulator happens to ask. Structural faults
//! (link outages, node crashes) are windows in *virtual* time; the
//! router consults [`FaultPlan::dead_links_at`] at each transmission
//! attempt's injection instant.
//!
//! Plans are built programmatically or parsed from the compact spec
//! strings the `stp` CLI accepts (see [`FaultPlan::parse`]).

use std::collections::HashSet;

use crate::topology::{Link, NodeId, Topology};
use crate::Time;

/// A directed link forced down for a window of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// The affected directed link.
    pub link: Link,
    /// First instant the link is down (inclusive).
    pub from_ns: Time,
    /// Instant the link recovers (exclusive); `Time::MAX` means the
    /// link never comes back.
    pub until_ns: Time,
}

/// A node removed from service at a point in virtual time. All links
/// incident to the node (both directions) are dead from `at_ns` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// The crashed node.
    pub node: NodeId,
    /// Crash instant (inclusive).
    pub at_ns: Time,
}

/// Bounded retransmission with exponential backoff, in exact integer
/// virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts per message (`1` = no retry).
    pub max_attempts: u32,
    /// Base backoff: attempt `k` (0-based) is injected
    /// `backoff_ns · (2^k − 1)` after the message was first ready, i.e.
    /// the gaps between consecutive attempts double each time.
    pub backoff_ns: Time,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_ns: 0,
        }
    }
}

impl RetryPolicy {
    /// Extra injection delay of attempt `attempt` relative to the
    /// message's first-ready instant: `backoff_ns · (2^attempt − 1)`.
    pub fn delay_for(self, attempt: u32) -> Time {
        if attempt == 0 || self.backoff_ns == 0 {
            return 0;
        }
        let factor = (1u64 << attempt.min(63)) - 1;
        self.backoff_ns.saturating_mul(factor)
    }
}

/// A complete, deterministic fault scenario.
///
/// The default plan is inert: nothing is dropped, delayed, or taken
/// down, and no retransmissions happen.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed of the per-transfer decision hash. Two plans with different
    /// seeds drop/delay different message sets at the same rates.
    pub seed: u64,
    /// Drop a transmission attempt with probability
    /// `drop_num / drop_den` (`drop_den == 0` disables drops).
    pub drop_num: u64,
    /// Denominator of the drop ratio.
    pub drop_den: u64,
    /// Delay an attempt's injection with probability
    /// `delay_num / delay_den` (`delay_den == 0` disables delays).
    pub delay_num: u64,
    /// Denominator of the delay ratio.
    pub delay_den: u64,
    /// Injection delay applied when the delay decision fires (ns).
    pub delay_ns: Time,
    /// Directed links down for explicit time windows.
    pub link_outages: Vec<LinkOutage>,
    /// Nodes that crash (their incident links die permanently).
    pub node_crashes: Vec<NodeCrash>,
    /// Retransmission policy for dropped or unroutable attempts.
    pub retry: RetryPolicy,
}

/// SplitMix64 finalizer — the avalanche core, used as a stateless hash.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An inert plan (equivalent to no fault injection at all).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that drops each transmission attempt with probability
    /// `num/den` and retries up to `max_attempts` times with `backoff_ns`
    /// exponential backoff — the canonical "transient loss" scenario.
    pub fn transient_drops(seed: u64, num: u64, den: u64, max_attempts: u32) -> Self {
        FaultPlan {
            seed,
            drop_num: num,
            drop_den: den,
            retry: RetryPolicy {
                max_attempts: max_attempts.max(1),
                backoff_ns: 500,
            },
            ..FaultPlan::default()
        }
    }

    /// True when the plan can never affect a run (no drops, delays,
    /// outages or crashes).
    pub fn is_inert(&self) -> bool {
        (self.drop_den == 0 || self.drop_num == 0)
            && (self.delay_den == 0 || self.delay_num == 0 || self.delay_ns == 0)
            && !self.has_structural_faults()
    }

    /// True when the plan contains link outages or node crashes (the
    /// faults that force rerouting).
    pub fn has_structural_faults(&self) -> bool {
        !self.link_outages.is_empty() || !self.node_crashes.is_empty()
    }

    /// Stateless decision hash for `(seq, attempt)` under `salt`
    /// (distinct salts keep the drop and delay decisions independent).
    fn decision(&self, seq: u64, attempt: u32, salt: u64) -> u64 {
        mix(self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add((attempt as u64) << 48)
            .wrapping_add(salt))
    }

    /// Whether transmission attempt `attempt` of message `seq` is
    /// dropped by the network.
    pub fn should_drop(&self, seq: u64, attempt: u32) -> bool {
        self.drop_den != 0 && self.decision(seq, attempt, 1) % self.drop_den < self.drop_num
    }

    /// Extra injection delay (ns) the network imposes on attempt
    /// `attempt` of message `seq` — `delay_ns` or 0.
    pub fn injection_delay_ns(&self, seq: u64, attempt: u32) -> Time {
        if self.delay_den != 0 && self.decision(seq, attempt, 2) % self.delay_den < self.delay_num {
            self.delay_ns
        } else {
            0
        }
    }

    /// The set of directed links dead at instant `t`: every link inside
    /// an active outage window, plus both directions of every link
    /// incident to an already-crashed node.
    pub fn dead_links_at(&self, t: Time, topology: &Topology) -> HashSet<Link> {
        let mut dead = HashSet::new();
        for o in &self.link_outages {
            if t >= o.from_ns && t < o.until_ns {
                dead.insert(o.link);
            }
        }
        for c in &self.node_crashes {
            if t >= c.at_ns && c.node < topology.num_nodes() {
                for nb in topology.neighbors(c.node) {
                    dead.insert(Link::new(c.node, nb));
                    dead.insert(Link::new(nb, c.node));
                }
            }
        }
        dead
    }

    /// Parse the compact spec strings the `stp` CLI accepts.
    ///
    /// Comma-separated `key=value` terms, each optional, in any order;
    /// `link` and `crash` may repeat:
    ///
    /// ```text
    /// seed=7                seed of the decision hash (default 0)
    /// drop=1/64             drop each attempt with probability 1/64
    /// delay=1/32:5000       delay 1/32 of attempts by 5000 ns
    /// link=3-4@1000..5000   link 3→4 down for [1000, 5000) ns
    /// link=3-4@1000..       link 3→4 down from 1000 ns forever
    /// crash=5@2000          node 5 crashes at 2000 ns
    /// retry=4:500           up to 4 attempts, 500 ns base backoff
    /// ```
    ///
    /// ```
    /// use mpp_model::fault::FaultPlan;
    /// let plan = FaultPlan::parse("seed=7,drop=1/64,retry=4:500").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!((plan.drop_num, plan.drop_den), (1, 64));
    /// assert_eq!(plan.retry.max_attempts, 4);
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        fn num<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String> {
            v.trim()
                .parse()
                .map_err(|_| format!("fault spec: bad {what} {v:?}"))
        }
        let mut plan = FaultPlan::default();
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, val) = term
                .split_once('=')
                .ok_or_else(|| format!("fault spec term {term:?} is not key=value"))?;
            match key.trim() {
                "seed" => plan.seed = num("seed", val)?,
                "drop" => {
                    let (n, d) = val
                        .split_once('/')
                        .ok_or_else(|| format!("drop wants num/den, got {val:?}"))?;
                    plan.drop_num = num("drop numerator", n)?;
                    plan.drop_den = num("drop denominator", d)?;
                    if plan.drop_den == 0 {
                        return Err("drop denominator must be nonzero".into());
                    }
                }
                "delay" => {
                    let (ratio, ns) = val
                        .split_once(':')
                        .ok_or_else(|| format!("delay wants num/den:ns, got {val:?}"))?;
                    let (n, d) = ratio
                        .split_once('/')
                        .ok_or_else(|| format!("delay wants num/den:ns, got {val:?}"))?;
                    plan.delay_num = num("delay numerator", n)?;
                    plan.delay_den = num("delay denominator", d)?;
                    plan.delay_ns = num("delay ns", ns)?;
                    if plan.delay_den == 0 {
                        return Err("delay denominator must be nonzero".into());
                    }
                }
                "link" => {
                    let (ends, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("link wants from-to@start..end, got {val:?}"))?;
                    let (f, t) = ends
                        .split_once('-')
                        .ok_or_else(|| format!("link wants from-to@start..end, got {val:?}"))?;
                    let (start, end) = window
                        .split_once("..")
                        .ok_or_else(|| format!("link wants from-to@start..end, got {val:?}"))?;
                    let until_ns = if end.trim().is_empty() {
                        Time::MAX
                    } else {
                        num("link outage end", end)?
                    };
                    plan.link_outages.push(LinkOutage {
                        link: Link::new(num("link endpoint", f)?, num("link endpoint", t)?),
                        from_ns: num("link outage start", start)?,
                        until_ns,
                    });
                }
                "crash" => {
                    let (node, at) = val
                        .split_once('@')
                        .ok_or_else(|| format!("crash wants node@ns, got {val:?}"))?;
                    plan.node_crashes.push(NodeCrash {
                        node: num("crash node", node)?,
                        at_ns: num("crash time", at)?,
                    });
                }
                "retry" => {
                    let (attempts, backoff) = val
                        .split_once(':')
                        .ok_or_else(|| format!("retry wants attempts:backoff_ns, got {val:?}"))?;
                    plan.retry = RetryPolicy {
                        max_attempts: num::<u32>("retry attempts", attempts)?.max(1),
                        backoff_ns: num("retry backoff", backoff)?,
                    };
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        assert!(!plan.should_drop(1, 0));
        assert_eq!(plan.injection_delay_ns(1, 0), 0);
        let topo = Topology::Mesh2D { rows: 1, cols: 4 };
        assert!(plan.dead_links_at(0, &topo).is_empty());
    }

    #[test]
    fn drop_decisions_are_pure_and_seed_sensitive() {
        let a = FaultPlan {
            seed: 1,
            drop_num: 1,
            drop_den: 4,
            ..FaultPlan::default()
        };
        // Pure: same question, same answer, regardless of call order.
        let first: Vec<bool> = (0..256).map(|seq| a.should_drop(seq, 0)).collect();
        let again: Vec<bool> = (0..256).map(|seq| a.should_drop(seq, 0)).collect();
        assert_eq!(first, again);
        // Roughly the configured rate.
        let dropped = first.iter().filter(|&&d| d).count();
        assert!(
            (20..110).contains(&dropped),
            "1/4 of 256 ≈ 64, got {dropped}"
        );
        // A different seed drops a different set.
        let b = FaultPlan {
            seed: 2,
            ..a.clone()
        };
        let other: Vec<bool> = (0..256).map(|seq| b.should_drop(seq, 0)).collect();
        assert_ne!(first, other);
        // Attempts decide independently: some dropped first attempt
        // succeeds on retry.
        assert!((0..256).any(|seq| a.should_drop(seq, 0) && !a.should_drop(seq, 1)));
    }

    #[test]
    fn backoff_is_exponential() {
        let r = RetryPolicy {
            max_attempts: 5,
            backoff_ns: 100,
        };
        assert_eq!(r.delay_for(0), 0);
        assert_eq!(r.delay_for(1), 100);
        assert_eq!(r.delay_for(2), 300);
        assert_eq!(r.delay_for(3), 700);
        // No overflow panic at absurd attempt counts.
        let _ = r.delay_for(200);
    }

    #[test]
    fn outage_windows_are_half_open() {
        let plan = FaultPlan {
            link_outages: vec![LinkOutage {
                link: Link::new(1, 2),
                from_ns: 100,
                until_ns: 200,
            }],
            ..FaultPlan::default()
        };
        let topo = Topology::Mesh2D { rows: 1, cols: 4 };
        assert!(plan.dead_links_at(99, &topo).is_empty());
        assert!(plan.dead_links_at(100, &topo).contains(&Link::new(1, 2)));
        assert!(plan.dead_links_at(199, &topo).contains(&Link::new(1, 2)));
        assert!(plan.dead_links_at(200, &topo).is_empty());
    }

    #[test]
    fn crash_kills_incident_links_permanently() {
        let plan = FaultPlan {
            node_crashes: vec![NodeCrash { node: 2, at_ns: 50 }],
            ..FaultPlan::default()
        };
        let topo = Topology::Mesh2D { rows: 1, cols: 4 };
        assert!(plan.dead_links_at(49, &topo).is_empty());
        let dead = plan.dead_links_at(50, &topo);
        assert_eq!(
            dead,
            HashSet::from([
                Link::new(2, 1),
                Link::new(1, 2),
                Link::new(2, 3),
                Link::new(3, 2)
            ])
        );
        assert_eq!(plan.dead_links_at(1 << 40, &topo).len(), 4);
    }

    #[test]
    fn parse_full_spec() {
        let plan =
            FaultPlan::parse("seed=7, drop=1/64, delay=1/32:5000, link=3-4@1000..5000, link=4-3@1000.., crash=5@2000, retry=4:500")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!((plan.drop_num, plan.drop_den), (1, 64));
        assert_eq!(
            (plan.delay_num, plan.delay_den, plan.delay_ns),
            (1, 32, 5000)
        );
        assert_eq!(plan.link_outages.len(), 2);
        assert_eq!(plan.link_outages[0].link, Link::new(3, 4));
        assert_eq!(plan.link_outages[0].until_ns, 5000);
        assert_eq!(plan.link_outages[1].until_ns, Time::MAX);
        assert_eq!(
            plan.node_crashes,
            vec![NodeCrash {
                node: 5,
                at_ns: 2000
            }]
        );
        assert_eq!(
            plan.retry,
            RetryPolicy {
                max_attempts: 4,
                backoff_ns: 500
            }
        );
        assert!(!plan.is_inert());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("drop=1").is_err());
        assert!(FaultPlan::parse("drop=1/0").is_err());
        assert!(FaultPlan::parse("link=3-4").is_err());
        assert!(FaultPlan::parse("retry=x:1").is_err());
        assert!(FaultPlan::parse("seed").is_err());
        // Empty spec is the inert plan.
        assert!(FaultPlan::parse("").unwrap().is_inert());
    }
}
