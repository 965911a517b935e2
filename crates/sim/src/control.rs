//! Message-scheduling controllers: the adversary's lever, on both
//! runtimes.
//!
//! In the paper's model the adversary controls asynchrony: it may delay any
//! message arbitrarily (but channels are reliable, so held messages are
//! merely "in transit"). A [`Controller`] sees every message copy as a
//! [`Msg`] and returns a [`Verdict`]. The simulator ([`crate::Sim`]) asks
//! it once per message, on its logical clock; an [`crate::ObjectHost`]
//! given one asks it once per object copy of an envelope on each leg, on
//! the trace clock's microseconds (`rastor_obs::trace::epoch_us`). Both
//! runtimes carry the verdicts out the same way, so a schedule written as
//! rules runs on either.
//!
//! Five stock controllers cover the workloads:
//!
//! * [`FixedDelay`] — constant latency; the base case for round counting.
//! * [`UniformDelay`] — seeded random latency in a range; soak tests.
//! * [`PartitionController`] — random latency plus a dynamic set of
//!   "slow links" whose messages are delayed until the partition heals.
//! * [`ScriptedController`] — full adversarial control via declarative
//!   rules; used to replay the lower-bound proof schedules and the
//!   explorer's delay masks.
//! * [`ChaosCfg`] — seeded link faults per object and per leg: head-of-line
//!   delay and jitter, loss, and adjacent reordering; the deployed
//!   substrates' fault profile.

use crate::engine::MsgDir;
use rastor_common::SplitMix64;
use rastor_common::{ClientId, ObjectId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;

/// One message copy, as a [`Controller`] sees it: its endpoints and the
/// `(op_seq, round)` of every frame it carries. A simulator message
/// carries one frame; a host's object copy carries every frame of its
/// coalesced envelope, and is one packet to the adversary.
#[derive(Clone, Copy, Debug)]
pub struct Msg<'a> {
    /// Direction (request or reply).
    pub dir: MsgDir,
    /// The client endpoint (sender of a request / recipient of a reply).
    pub client: ClientId,
    /// The object endpoint.
    pub object: ObjectId,
    /// `(op_seq, round)` per frame: the per-client operation sequence
    /// number (the op nonce on threads) and the 1-based round.
    pub frames: &'a [(u64, u32)],
}

/// The controller's decision for one message copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Deliver at the given absolute time, clamped to ≥ now and to FIFO
    /// order per (client, object, direction).
    DeliverAt(u64),
    /// Keep the message "in transit" indefinitely. The simulator can
    /// release it (`Sim::release_held`); a host never does, and a cut
    /// loses it.
    Hold,
    /// Lose the message. Outside the paper's reliable channels: it exists
    /// for the deployed substrates' recovery paths (resubmission, op
    /// deadlines).
    Drop,
    /// Deliver the message right after the next message on the same
    /// directed link that is delivered. A link holds back one message at a
    /// time: a `Behind` verdict while one is held delivers the message now,
    /// with the held one right after it.
    Behind,
}

/// Decides the schedule of every message copy.
///
/// Implementations see the copy's coordinates ([`Msg`]), not its payload,
/// so scripted adversaries match on client, object, operation and round.
pub trait Controller {
    /// Schedule one message copy sent at `now`.
    fn verdict(&mut self, msg: &Msg, now: u64) -> Verdict;
}

/// Constant message latency.
#[derive(Clone, Copy, Debug)]
pub struct FixedDelay {
    delay: u64,
}

impl FixedDelay {
    /// A controller delivering every message after exactly `delay` ticks.
    pub fn new(delay: u64) -> FixedDelay {
        FixedDelay { delay }
    }
}

impl Controller for FixedDelay {
    fn verdict(&mut self, _msg: &Msg, now: u64) -> Verdict {
        Verdict::DeliverAt(now + self.delay)
    }
}

/// Seeded uniform-random latency in `[lo, hi]`.
#[derive(Clone, Debug)]
pub struct UniformDelay {
    rng: SplitMix64,
    lo: u64,
    hi: u64,
}

impl UniformDelay {
    /// A controller with latencies drawn uniformly from `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(seed: u64, lo: u64, hi: u64) -> UniformDelay {
        assert!(lo <= hi, "empty delay range");
        UniformDelay {
            rng: SplitMix64::new(seed),
            lo,
            hi,
        }
    }

    fn draw(&mut self, now: u64) -> u64 {
        now + self.rng.gen_range(self.lo, self.hi)
    }
}

impl Controller for UniformDelay {
    fn verdict(&mut self, _msg: &Msg, now: u64) -> Verdict {
        Verdict::DeliverAt(self.draw(now))
    }
}

/// Random latency plus dynamically slow (partitioned) links.
///
/// Messages crossing a slow link are delivered with a large extra delay,
/// modeling transient partitions while preserving channel reliability.
#[derive(Clone, Debug)]
pub struct PartitionController {
    base: UniformDelay,
    slow: HashSet<(ClientId, ObjectId)>,
    penalty: u64,
}

impl PartitionController {
    /// Wrap a uniform-delay controller with a slow-link penalty.
    pub fn new(seed: u64, lo: u64, hi: u64, penalty: u64) -> PartitionController {
        PartitionController {
            base: UniformDelay::new(seed, lo, hi),
            slow: HashSet::new(),
            penalty,
        }
    }

    /// Mark a client↔object link slow.
    pub fn slow_link(&mut self, client: ClientId, object: ObjectId) {
        self.slow.insert((client, object));
    }

    /// Heal a link.
    pub fn heal_link(&mut self, client: ClientId, object: ObjectId) {
        self.slow.remove(&(client, object));
    }
}

impl Controller for PartitionController {
    fn verdict(&mut self, msg: &Msg, now: u64) -> Verdict {
        let at = self.base.draw(now);
        if self.slow.contains(&(msg.client, msg.object)) {
            Verdict::DeliverAt(at + self.penalty)
        } else {
            Verdict::DeliverAt(at)
        }
    }
}

/// A declarative rule used by [`ScriptedController`].
///
/// A message matches a rule when every populated field matches; the
/// `op_seq` and `round` fields match when any one of the message's frames
/// matches both. The first matching rule's verdict applies; unmatched
/// messages are delivered with unit delay.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Match direction (request/reply), if set.
    pub dir: Option<MsgDir>,
    /// Match the client endpoint, if set.
    pub client: Option<ClientId>,
    /// Match the object endpoint, if set.
    pub object: Option<ObjectId>,
    /// Match a set of object endpoints, if non-empty.
    pub objects: Vec<ObjectId>,
    /// Match the per-client operation sequence number, if set.
    pub op_seq: Option<u64>,
    /// Match the round number, if set.
    pub round: Option<u32>,
    /// Verdict for matching messages.
    pub verdict: Verdict,
    /// If set, overrides `verdict` with `DeliverAt(now + extra_delay)` —
    /// a *relative* slowdown (e.g. "this reader's links are 10× slower").
    pub extra_delay: Option<u64>,
}

impl Rule {
    /// A rule matching everything, holding it.
    pub fn hold_all() -> Rule {
        Rule {
            dir: None,
            client: None,
            object: None,
            objects: Vec::new(),
            op_seq: None,
            round: None,
            verdict: Verdict::Hold,
            extra_delay: None,
        }
    }

    /// A rule matching everything, delivering after a relative delay.
    pub fn slow_all(extra_delay: u64) -> Rule {
        Rule {
            extra_delay: Some(extra_delay),
            ..Rule::hold_all()
        }
    }

    /// Builder: hold messages of a direction.
    pub fn hold(dir: MsgDir) -> Rule {
        Rule {
            dir: Some(dir),
            ..Rule::hold_all()
        }
    }

    /// Builder: restrict to a client.
    #[must_use]
    pub fn client(mut self, c: ClientId) -> Rule {
        self.client = Some(c);
        self
    }

    /// Builder: restrict to one object.
    #[must_use]
    pub fn object(mut self, o: ObjectId) -> Rule {
        self.object = Some(o);
        self
    }

    /// Builder: restrict to a set of objects.
    #[must_use]
    pub fn objects(mut self, os: impl IntoIterator<Item = ObjectId>) -> Rule {
        self.objects = os.into_iter().collect();
        self
    }

    /// Builder: restrict to an operation sequence number.
    #[must_use]
    pub fn op_seq(mut self, s: u64) -> Rule {
        self.op_seq = Some(s);
        self
    }

    /// Builder: restrict to a round number.
    #[must_use]
    pub fn round(mut self, r: u32) -> Rule {
        self.round = Some(r);
        self
    }

    /// Builder: override the verdict.
    #[must_use]
    pub fn verdict(mut self, v: Verdict) -> Rule {
        self.verdict = v;
        self
    }

    fn matches(&self, msg: &Msg) -> bool {
        self.dir.is_none_or(|d| d == msg.dir)
            && self.client.is_none_or(|c| c == msg.client)
            && self.object.is_none_or(|o| o == msg.object)
            && (self.objects.is_empty() || self.objects.contains(&msg.object))
            && msg.frames.iter().any(|&(op_seq, round)| {
                self.op_seq.is_none_or(|s| s == op_seq) && self.round.is_none_or(|r| r == round)
            })
    }
}

/// Fully scripted adversarial scheduling: an ordered rule list evaluated
/// first-match-wins, falling back to unit delay.
///
/// The lower-bound run constructions express "round `i` of operation `op`
/// *skips* block `B`" as a rule holding the requests from that round to the
/// block's objects (no object in the block receives the message — it stays
/// in transit forever), exactly matching the paper's definition of skipping.
#[derive(Clone, Debug, Default)]
pub struct ScriptedController {
    rules: Vec<Rule>,
    default_delay: u64,
}

impl ScriptedController {
    /// An empty script: every message delivered with unit delay.
    pub fn new() -> ScriptedController {
        ScriptedController {
            rules: Vec::new(),
            default_delay: 1,
        }
    }

    /// Append a rule (later rules only apply if earlier ones don't match).
    pub fn push(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Builder-style rule append.
    #[must_use]
    pub fn with_rule(mut self, rule: Rule) -> ScriptedController {
        self.rules.push(rule);
        self
    }

    /// Set the fallback delay for unmatched messages.
    #[must_use]
    pub fn with_default_delay(mut self, d: u64) -> ScriptedController {
        self.default_delay = d;
        self
    }
}

impl Controller for ScriptedController {
    fn verdict(&mut self, msg: &Msg, now: u64) -> Verdict {
        let Some(rule) = self.rules.iter().find(|rule| rule.matches(msg)) else {
            return Verdict::DeliverAt(now + self.default_delay);
        };
        match (rule.extra_delay, rule.verdict) {
            (Some(d), _) => Verdict::DeliverAt(now + d),
            (None, Verdict::DeliverAt(at)) => Verdict::DeliverAt(at.max(now)),
            (None, v) => v,
        }
    }
}

/// A link-fault profile as a stock seeded controller: what the adversary
/// does to every object's messages on a deployed substrate. The default
/// delays, drops and reorders nothing; set the knobs you want. Service
/// jitter is [`ChaosCfg::jitter_only`].
///
/// Each copy's draws become a verdict: a lost copy is [`Verdict::Drop`], a
/// copy held back behind the object's next one on the same leg is
/// [`Verdict::Behind`], and a request copy's head-of-line delay is a
/// [`Verdict::DeliverAt`] in microseconds. Object `o` draws leg `l` (0 =
/// requests, 1 = replies) from `SplitMix64(seed ^ (o << 1) ^ l)`, so the
/// fault draws replay from the seed given the same arrival order. The
/// streams and each object's head-of-line release time are the
/// controller's own state, made on first use; clone a fresh profile for
/// each host.
#[derive(Clone)]
pub struct ChaosCfg {
    /// Seed for the per-object, per-leg fault streams.
    pub seed: u64,
    /// Fixed latency added to every request copy, head-of-line: a copy
    /// clears its object's link `delay + jitter·U` after the copy before
    /// it did. Charged once per round trip; replies are not delayed.
    pub delay: Duration,
    /// Extra uniform-random latency in `[0, jitter)` per request copy.
    pub jitter: Duration,
    /// Probability a request copy or a reply envelope is lost.
    pub drop_prob: f64,
    /// Probability a request copy or a reply envelope is held back and
    /// delivered right *after* that object's next one on the same leg.
    pub reorder_prob: f64,
    /// Each object's leg streams, by `(object, leg)`.
    streams: HashMap<(ObjectId, u64), SplitMix64>,
    /// When each object's request leg frees up (µs): the release time of
    /// the last copy it delayed.
    release: HashMap<ObjectId, u64>,
}

impl Default for ChaosCfg {
    fn default() -> ChaosCfg {
        ChaosCfg {
            seed: 1,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            reorder_prob: 0.0,
            streams: HashMap::new(),
            release: HashMap::new(),
        }
    }
}

/// Reports print the five knobs; the draw state is not part of a profile.
impl fmt::Debug for ChaosCfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosCfg")
            .field("seed", &self.seed)
            .field("delay", &self.delay)
            .field("jitter", &self.jitter)
            .field("drop_prob", &self.drop_prob)
            .field("reorder_prob", &self.reorder_prob)
            .finish()
    }
}

impl ChaosCfg {
    /// A pure added-latency profile: fixed `delay` plus uniform jitter of
    /// the same magnitude.
    pub fn delay_only(delay: Duration) -> ChaosCfg {
        ChaosCfg {
            delay,
            jitter: delay,
            ..ChaosCfg::default()
        }
    }

    /// A pure service-jitter profile: uniform latency in `[0, jitter)` per
    /// request copy.
    pub fn jitter_only(jitter: Duration) -> ChaosCfg {
        ChaosCfg {
            jitter,
            ..ChaosCfg::default()
        }
    }

    /// Set the drop probability.
    ///
    /// ## Choosing a drop rate
    ///
    /// Drops act on one object's copy of an envelope: a dropped request
    /// costs that object the round, a dropped reply its answer, and the
    /// other objects are untouched. A client waits for a quorum, and it
    /// resubmits a stalled flush (see `rastor_net::NetCluster`), so a
    /// drop costs at most one resubmission interval — tens of
    /// milliseconds — not a whole op deadline, and soaks can run
    /// genuinely lossy links:
    ///
    /// ```
    /// use rastor_sim::control::ChaosCfg;
    /// use std::time::Duration;
    ///
    /// // A harsh lossy-link profile a soak still makes progress through:
    /// // ~20% of copies lost each way, small head-of-line delay.
    /// let cfg = ChaosCfg::delay_only(Duration::from_micros(100)).with_drops(0.20);
    /// assert!(cfg.drop_prob < 1.0, "a link that drops everything is a partition");
    /// ```
    #[must_use]
    pub fn with_drops(mut self, prob: f64) -> ChaosCfg {
        self.drop_prob = prob;
        self
    }

    /// Set the reorder probability.
    #[must_use]
    pub fn with_reordering(mut self, prob: f64) -> ChaosCfg {
        self.reorder_prob = prob;
        self
    }

    /// Set the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ChaosCfg {
        self.seed = seed;
        self
    }

    /// Object `object`'s fault stream on leg `leg` (0 = requests, 1 =
    /// replies), before any draw.
    pub(crate) fn stream(seed: u64, object: ObjectId, leg: u64) -> SplitMix64 {
        SplitMix64::new(seed ^ (u64::from(object.0) << 1) ^ leg)
    }
}

impl Controller for ChaosCfg {
    fn verdict(&mut self, msg: &Msg, now: u64) -> Verdict {
        let leg = match msg.dir {
            MsgDir::Request => 0,
            MsgDir::Reply => 1,
        };
        let seed = self.seed;
        let rng = self
            .streams
            .entry((msg.object, leg))
            .or_insert_with(|| ChaosCfg::stream(seed, msg.object, leg));
        if self.drop_prob > 0.0 && rng.next_f64() < self.drop_prob {
            return Verdict::Drop;
        }
        if self.reorder_prob > 0.0 && rng.next_f64() < self.reorder_prob {
            return Verdict::Behind;
        }
        if msg.dir == MsgDir::Reply || (self.delay.is_zero() && self.jitter.is_zero()) {
            return Verdict::DeliverAt(now);
        }
        // Head-of-line: the copy clears the link `delay + jitter·U` after
        // its predecessor did, or after now if the link was idle — a
        // queueing model kept off the threads, so a "busy" object never
        // blocks one. Rounded up to a whole microsecond, so a delayed copy
        // is never due at once.
        let wait = self.delay + self.jitter.mul_f64(rng.next_f64());
        let wait_us = u64::try_from(wait.as_nanos().div_ceil(1_000)).unwrap_or(u64::MAX);
        let release = self.release.entry(msg.object).or_insert(now);
        *release = (*release).max(now).saturating_add(wait_us);
        Verdict::DeliverAt(*release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: &[(u64, u32)] = &[(0, 1)];

    fn msg(dir: MsgDir, client: ClientId, object: ObjectId, frames: &[(u64, u32)]) -> Msg<'_> {
        Msg {
            dir,
            client,
            object,
            frames,
        }
    }

    #[test]
    fn fixed_delay_is_constant() {
        let mut c = FixedDelay::new(5);
        let m = msg(MsgDir::Request, ClientId::writer(), ObjectId(0), ONE);
        assert_eq!(c.verdict(&m, 10), Verdict::DeliverAt(15));
    }

    #[test]
    fn uniform_delay_is_seeded_deterministic() {
        let m = msg(MsgDir::Request, ClientId::writer(), ObjectId(0), ONE);
        let draw = |seed| UniformDelay::new(seed, 1, 100).verdict(&m, 0);
        assert_eq!(draw(42), draw(42));
    }

    #[test]
    #[should_panic(expected = "empty delay range")]
    fn uniform_delay_rejects_inverted_range() {
        let _ = UniformDelay::new(0, 5, 1);
    }

    #[test]
    fn partition_penalizes_slow_links() {
        let mut c = PartitionController::new(1, 1, 1, 1000);
        c.slow_link(ClientId::reader(0), ObjectId(2));
        let slow = msg(MsgDir::Request, ClientId::reader(0), ObjectId(2), ONE);
        let fast = msg(MsgDir::Request, ClientId::reader(0), ObjectId(1), ONE);
        match (c.verdict(&slow, 0), c.verdict(&fast, 0)) {
            (Verdict::DeliverAt(s), Verdict::DeliverAt(f)) => assert!(s > f + 500),
            _ => panic!("both links deliver"),
        }
        c.heal_link(ClientId::reader(0), ObjectId(2));
        assert_eq!(
            c.verdict(&slow, 0),
            Verdict::DeliverAt(1),
            "healed link uses base delay of 1"
        );
    }

    #[test]
    fn scripted_rules_first_match_wins() {
        let mut c = ScriptedController::new()
            .with_rule(
                Rule::hold(MsgDir::Request)
                    .client(ClientId::writer())
                    .round(2)
                    .objects([ObjectId(3)]),
            )
            .with_rule(Rule::hold_all().verdict(Verdict::DeliverAt(50)));
        // Writer round-2 request to s3 is held (skipped).
        let skip = msg(MsgDir::Request, ClientId::writer(), ObjectId(3), &[(0, 2)]);
        assert_eq!(c.verdict(&skip, 0), Verdict::Hold);
        // Everything else hits the catch-all DeliverAt(50).
        let other = msg(MsgDir::Request, ClientId::writer(), ObjectId(1), &[(0, 2)]);
        assert_eq!(c.verdict(&other, 0), Verdict::DeliverAt(50));
    }

    #[test]
    fn scripted_fallback_delay() {
        let mut c = ScriptedController::new().with_default_delay(7);
        let m = msg(MsgDir::Reply, ClientId::reader(1), ObjectId(0), &[(3, 1)]);
        assert_eq!(c.verdict(&m, 100), Verdict::DeliverAt(107));
    }

    #[test]
    fn rule_matching_is_conjunctive() {
        let rule = Rule::hold(MsgDir::Request)
            .client(ClientId::reader(0))
            .op_seq(1)
            .round(2);
        let m = |dir, reader, frames| msg(dir, ClientId::reader(reader), ObjectId(9), frames);
        assert!(rule.matches(&m(MsgDir::Request, 0, &[(1, 2)])));
        assert!(!rule.matches(&m(MsgDir::Reply, 0, &[(1, 2)])));
        assert!(!rule.matches(&m(MsgDir::Request, 1, &[(1, 2)])));
        assert!(!rule.matches(&m(MsgDir::Request, 0, &[(0, 2)])));
        assert!(!rule.matches(&m(MsgDir::Request, 0, &[(1, 1)])));
    }

    /// An envelope is one packet: a rule matches a copy when one of its
    /// frames matches op and round together, not when the op matches one
    /// frame and the round another.
    #[test]
    fn a_rule_matches_a_coalesced_copy_through_any_one_frame() {
        let rule = Rule::hold(MsgDir::Request).op_seq(4).round(2);
        let copy = |frames| msg(MsgDir::Request, ClientId::reader(0), ObjectId(0), frames);
        assert!(rule.matches(&copy(&[(3, 1), (4, 2)])));
        assert!(!rule.matches(&copy(&[(4, 1), (3, 2)])));
        assert!(
            !rule.matches(&copy(&[])),
            "a copy without frames matches no op"
        );
    }

    /// The profile's draws, as verdicts: head-of-line delay on the request
    /// leg only, seeded per object and leg.
    #[test]
    fn a_chaos_profile_delays_requests_head_of_line_and_replays_from_its_seed() {
        let request = |o| msg(MsgDir::Request, ClientId::reader(0), ObjectId(o), ONE);
        let reply = msg(MsgDir::Reply, ClientId::reader(0), ObjectId(0), ONE);
        let fresh = || ChaosCfg::delay_only(Duration::from_micros(100)).with_seed(9);
        let mut c = fresh();
        let at = |v| match v {
            Verdict::DeliverAt(at) => at,
            other => panic!("a delay-only profile delivers, got {other:?}"),
        };
        let first = at(c.verdict(&request(0), 1_000));
        assert!((1_100..=1_200).contains(&first), "delay + jitter: {first}");
        let second = at(c.verdict(&request(0), 1_000));
        assert!(second >= first + 100, "head-of-line behind the first copy");
        assert_eq!(c.verdict(&reply, 1_000), Verdict::DeliverAt(1_000));
        let other = at(c.verdict(&request(1), 1_000));
        assert!(other < second, "another object's link is its own");
        assert_eq!(
            fresh().verdict(&request(0), 1_000),
            Verdict::DeliverAt(first)
        );
    }

    /// Loss and reordering become [`Verdict::Drop`] and [`Verdict::Behind`].
    #[test]
    fn a_chaos_profile_drops_and_reorders_through_verdicts() {
        let m = msg(MsgDir::Reply, ClientId::reader(0), ObjectId(2), ONE);
        let mut lossy = ChaosCfg::default().with_drops(1.0);
        assert_eq!(lossy.verdict(&m, 5), Verdict::Drop);
        let mut reorder = ChaosCfg::default().with_reordering(1.0);
        assert_eq!(reorder.verdict(&m, 5), Verdict::Behind);
        assert_eq!(ChaosCfg::default().verdict(&m, 5), Verdict::DeliverAt(5));
        assert!(
            !format!("{reorder:?}").contains("streams"),
            "reports print the knobs only"
        );
    }
}
