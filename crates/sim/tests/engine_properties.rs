//! Property-based tests of the simulation engine itself: determinism,
//! FIFO channel ordering, round accounting, and controller algebra —
//! every [`Verdict`] the engine carries out.

use proptest::prelude::*;
use rastor_common::{ClientId, ObjectId, OpKind};
use rastor_sim::control::Rule;
use rastor_sim::{
    ClientAction, MsgDir, ObjectBehavior, RoundClient, ScriptedController, Sim, SimConfig,
    UniformDelay, Verdict,
};
use std::cell::RefCell;
use std::rc::Rc;

/// An object that records the order in which it receives payloads and
/// echoes a running counter.
struct SeqObject {
    seen: Vec<u32>,
}

impl ObjectBehavior<u32, (u32, Vec<u32>)> for SeqObject {
    fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<(u32, Vec<u32>)> {
        self.seen.push(*req);
        Some((*req, self.seen.clone()))
    }
}

/// A client that runs `rounds` rounds, each waiting for `need` replies,
/// sending its round number as payload.
struct Phases {
    need: usize,
    got: usize,
    round: u32,
    rounds: u32,
}

impl RoundClient<u32, (u32, Vec<u32>)> for Phases {
    type Out = u32;
    fn start(&mut self) -> u32 {
        1
    }
    fn on_reply(
        &mut self,
        _from: ObjectId,
        _round: u32,
        _reply: &(u32, Vec<u32>),
    ) -> ClientAction<u32, u32> {
        self.got += 1;
        if self.got < self.need {
            return ClientAction::Wait;
        }
        self.got = 0;
        if self.round < self.rounds {
            self.round += 1;
            ClientAction::NextRound(self.round)
        } else {
            ClientAction::Complete(self.round)
        }
    }
}

fn run_once(seed: u64, n_objects: usize, n_clients: u32, rounds: u32) -> Vec<(ClientId, u64, u64)> {
    let mut sim: Sim<u32, (u32, Vec<u32>), u32> = Sim::with_controller(
        SimConfig::default(),
        Box::new(UniformDelay::new(seed, 1, 17)),
    );
    for _ in 0..n_objects {
        sim.add_object(Box::new(SeqObject { seen: vec![] }));
    }
    for c in 0..n_clients {
        sim.invoke_at(
            (c as u64) * 3,
            ClientId::reader(c),
            OpKind::Read,
            Box::new(Phases {
                need: n_objects - 1,
                got: 0,
                round: 1,
                rounds,
            }),
        );
    }
    sim.run_to_quiescence()
        .into_iter()
        .map(|c| (c.client, c.op_seq, c.stat.completed_at))
        .collect()
}

proptest! {
    #[test]
    fn engine_is_deterministic(seed in 0u64..1000, n in 3usize..6, clients in 1u32..4) {
        prop_assert_eq!(run_once(seed, n, clients, 2), run_once(seed, n, clients, 2));
    }

    #[test]
    fn round_counts_equal_broadcasts(rounds in 1u32..6, n in 3usize..6) {
        let mut sim: Sim<u32, (u32, Vec<u32>), u32> = Sim::new(SimConfig::default());
        for _ in 0..n {
            sim.add_object(Box::new(SeqObject { seen: vec![] }));
        }
        sim.invoke_at(
            0,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(Phases { need: n, got: 0, round: 1, rounds }),
        );
        let done = sim.run_to_quiescence();
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(done[0].stat.rounds.get(), rounds);
    }

    #[test]
    fn fifo_per_link_holds_under_random_delays(seed in 0u64..500) {
        // A client sending rounds 1..4 to one object: the object must see
        // payloads in round order despite random per-message delays.
        let mut sim: Sim<u32, (u32, Vec<u32>), u32> = Sim::with_controller(
            SimConfig::default(),
            Box::new(UniformDelay::new(seed, 1, 50)),
        );
        sim.add_object(Box::new(SeqObject { seen: vec![] }));
        sim.add_object(Box::new(SeqObject { seen: vec![] }));
        sim.invoke_at(
            0,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(Phases { need: 2, got: 0, round: 1, rounds: 4 }),
        );
        let done = sim.run_to_quiescence();
        prop_assert_eq!(done.len(), 1);
        // The object's recorded sequence must be sorted (FIFO per link).
        let obs = sim.trace().observations_of(ClientId::reader(0));
        prop_assert!(!obs.is_empty());
        // Every reply embeds the object's seen-list; the last one is the
        // full, sorted record.
        let last = &obs.last().unwrap().payload;
        let inner: Vec<u32> = last
            .trim_start_matches(|c| c != '[')
            .trim_start_matches('[')
            .trim_end_matches(|c| c != ']')
            .trim_end_matches(']')
            .split(", ")
            .filter_map(|s| s.parse().ok())
            .collect();
        let mut sorted = inner.clone();
        sorted.sort_unstable();
        prop_assert_eq!(inner, sorted);
    }

    #[test]
    fn held_messages_never_deliver(seed in 0u64..200) {
        // Holding all requests to object 0 means it never sees traffic,
        // and a client needing all replies never completes.
        let controller = ScriptedController::new()
            .with_rule(Rule::hold(MsgDir::Request).object(ObjectId(0)));
        let mut sim: Sim<u32, (u32, Vec<u32>), u32> =
            Sim::with_controller(SimConfig::default(), Box::new(controller));
        for _ in 0..3 {
            sim.add_object(Box::new(SeqObject { seen: vec![] }));
        }
        sim.invoke_at(
            seed % 7,
            ClientId::reader(0),
            OpKind::Read,
            Box::new(Phases { need: 3, got: 0, round: 1, rounds: 1 }),
        );
        let done = sim.run_to_quiescence();
        prop_assert!(done.is_empty());
        prop_assert_eq!(sim.held_messages().len(), 1);
    }

    #[test]
    fn dropped_messages_never_deliver_nor_complete_a_round(seed in 0u64..200) {
        // Object 0's replies are lost: a client needing all three replies
        // never completes, one needing two completes without object 0, no
        // reply from object 0 is ever observed, and nothing is left held.
        let controller = ScriptedController::new()
            .with_rule(Rule::hold(MsgDir::Reply).object(ObjectId(0)).verdict(Verdict::Drop));
        let mut sim: Sim<u32, (u32, Vec<u32>), u32> =
            Sim::with_controller(SimConfig::default(), Box::new(controller));
        for _ in 0..3 {
            sim.add_object(Box::new(SeqObject { seen: vec![] }));
        }
        for (reader, need) in [(0, 3), (1, 2)] {
            sim.invoke_at(
                seed % 7,
                ClientId::reader(reader),
                OpKind::Read,
                Box::new(Phases { need, got: 0, round: 1, rounds: 2 }),
            );
        }
        let done = sim.run_to_quiescence();
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(done[0].client, ClientId::reader(1));
        for reader in 0..2 {
            let obs = sim.trace().observations_of(ClientId::reader(reader));
            prop_assert!(obs.iter().all(|o| o.object != ObjectId(0)));
        }
        prop_assert!(sim.held_messages().is_empty(), "a dropped message is not held");
    }
}

/// Records every payload it receives in a log the test keeps.
struct Logged(Rc<RefCell<Vec<u32>>>);

impl ObjectBehavior<u32, (u32, Vec<u32>)> for Logged {
    fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<(u32, Vec<u32>)> {
        self.0.borrow_mut().push(*req);
        Some((*req, Vec::new()))
    }
}

/// The round-1 request to object 0 is held behind its successor on that
/// link, the round-2 request: object 0 applies it right after round 2's
/// and before round 3's.
#[test]
fn a_behind_message_delivers_right_after_its_successor() {
    let controller = ScriptedController::new().with_rule(
        Rule::hold(MsgDir::Request)
            .object(ObjectId(0))
            .round(1)
            .verdict(Verdict::Behind),
    );
    let mut sim: Sim<u32, (u32, Vec<u32>), u32> =
        Sim::with_controller(SimConfig::default(), Box::new(controller));
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.add_object(Box::new(Logged(Rc::clone(&log))));
    for _ in 0..2 {
        sim.add_object(Box::new(Logged(Rc::new(RefCell::new(Vec::new())))));
    }
    sim.invoke_at(
        0,
        ClientId::reader(0),
        OpKind::Read,
        Box::new(Phases {
            need: 2,
            got: 0,
            round: 1,
            rounds: 3,
        }),
    );
    let done = sim.run_to_quiescence();
    assert_eq!(done.len(), 1);
    assert_eq!(*log.borrow(), [2, 1, 3]);
    assert!(sim.held_messages().is_empty());
}

#[test]
fn released_messages_deliver_in_order() {
    let controller =
        ScriptedController::new().with_rule(Rule::hold(MsgDir::Request).object(ObjectId(0)));
    let mut sim: Sim<u32, (u32, Vec<u32>), u32> =
        Sim::with_controller(SimConfig::default(), Box::new(controller));
    for _ in 0..3 {
        sim.add_object(Box::new(SeqObject { seen: vec![] }));
    }
    sim.invoke_at(
        0,
        ClientId::reader(0),
        OpKind::Read,
        Box::new(Phases {
            need: 3,
            got: 0,
            round: 1,
            rounds: 1,
        }),
    );
    // Drain what can run; the op stalls at 2/3 replies.
    assert!(sim.run_until_completion().is_none());
    // Release the held request: the op now completes.
    let held = sim.held_messages();
    assert_eq!(held.len(), 1);
    let at = sim.now() + 5;
    sim.release_held(held[0], at);
    let done = sim.run_to_quiescence();
    assert_eq!(done.len(), 1);
}
