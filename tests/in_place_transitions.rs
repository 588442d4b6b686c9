//! The in-place transition contract: `Automaton::apply` either moves the
//! state or returns `Err` and leaves it exactly as it was.
//!
//! The server leans on this: a shard keeps stepping a retired session's
//! endpoint after `apply_recv` or `step` fails (the ghost re-ack path), so
//! a refused action that half-applied its effect would corrupt the state
//! it goes on using.
//!
//! For both roles of every wire protocol, the channel `C(P)`, and one
//! composition, a lockstep transfer over a FIFO channel visits the states
//! a real run passes through; at each one, every action of a small
//! alphabet is fired at a copy, and every refusal must leave the copy
//! equal to the original.
//!
//! The same walk checks the buffer contract of `Automaton::enabled_into`,
//! which lets `Driven` step with one reused buffer: it appends exactly
//! `enabled(state)` after whatever the caller's buffer held, and never
//! clears, reorders or dedupes against that prefix.

use std::collections::VecDeque;
use std::fmt::Debug;

use rstp::automata::{ActionClass, Automaton, Compose, StepError};
use rstp::core::protocols::{
    stab_beta_transmitter, AlphaReceiver, AlphaTransmitter, AltBitReceiver, AltBitTransmitter,
    BetaReceiver, BetaTransmitter, FramedReceiver, FramedTransmitter, GammaReceiver,
    GammaTransmitter, PipelinedReceiver, PipelinedTransmitter, StabBetaReceiver, StabPhase,
    StabStenningReceiver, StabStenningTransmitter, StenningReceiver, StenningTransmitter,
};
use rstp::core::{Channel, ChannelState, InternalKind, Message, Packet, RstpAction, TimingParams};
use rstp::net::{Driven, NetError, SessionEndpoint, StepEffect};

const K: u64 = 4;

fn params() -> TimingParams {
    TimingParams::from_ticks(1, 2, 4).unwrap() // δ1 = 4, δ2 = 2
}

fn input() -> Vec<Message> {
    vec![
        true, false, false, true, true, false, true, true, false, true,
    ]
}

/// Every state one transfer passed through, per component, recorded
/// after each move (so a receiver is also seen holding undelivered acks).
struct Walk<T, R> {
    transmitter: Vec<T>,
    receiver: Vec<R>,
    channel: Vec<ChannelState>,
    /// `(receiver, (channel, transmitter))` after each move.
    system: Vec<(R, (ChannelState, T))>,
    written: Vec<Message>,
    top_symbol: u64,
}

impl<T: Clone, R: Clone> Walk<T, R> {
    fn record(&mut self, ts: &T, rs: &R, cs: &ChannelState) {
        self.transmitter.push(ts.clone());
        self.receiver.push(rs.clone());
        self.channel.push(cs.clone());
        self.system.push((rs.clone(), (cs.clone(), ts.clone())));
    }
}

/// Runs `t` and `r` in lockstep: each round the transmitter takes its
/// enabled action, the channel delivers its oldest packet, and the
/// receiver takes its enabled action, until all three are done.
fn walk<T, R>(t: &T, r: &R) -> Walk<T::State, R::State>
where
    T: Automaton<Action = RstpAction>,
    R: Automaton<Action = RstpAction>,
{
    let channel = Channel::new();
    let (mut ts, mut rs, mut cs) = (
        t.initial_state(),
        r.initial_state(),
        channel.initial_state(),
    );
    let mut queue = VecDeque::new();
    let mut w = Walk {
        transmitter: Vec::new(),
        receiver: Vec::new(),
        channel: Vec::new(),
        system: Vec::new(),
        written: Vec::new(),
        top_symbol: 0,
    };
    for _ in 0..100_000 {
        w.record(&ts, &rs, &cs);
        let t_action = t.enabled(&ts).first().copied();
        let r_enabled = r.enabled(&rs);
        let idle = RstpAction::ReceiverInternal(InternalKind::Idle);
        if t_action.is_none() && queue.is_empty() && r_enabled == [idle] {
            return w;
        }
        if let Some(a) = t_action {
            t.apply(&mut ts, &a).unwrap();
            if let RstpAction::Send(p) = a {
                channel.apply(&mut cs, &a).unwrap();
                queue.push_back(p);
                w.top_symbol = w.top_symbol.max(symbol(p));
            }
            w.record(&ts, &rs, &cs);
        }
        if let Some(p) = queue.pop_front() {
            let recv = RstpAction::Recv(p);
            channel.apply(&mut cs, &recv).unwrap();
            match p {
                Packet::Data(_) => r.apply(&mut rs, &recv).unwrap(),
                Packet::Ack(_) => t.apply(&mut ts, &recv).unwrap(),
            }
            w.record(&ts, &rs, &cs);
        }
        let a = r.enabled(&rs)[0];
        r.apply(&mut rs, &a).unwrap();
        match a {
            RstpAction::Send(p) => {
                channel.apply(&mut cs, &a).unwrap();
                queue.push_back(p);
                w.top_symbol = w.top_symbol.max(symbol(p));
            }
            RstpAction::Write(m) => w.written.push(m),
            _ => {}
        }
    }
    panic!("the lockstep transfer did not finish");
}

fn symbol(p: Packet) -> u64 {
    let (Packet::Data(s) | Packet::Ack(s)) = p;
    s
}

/// Each `recv` and `send` over symbols `0..=top`, both writes, and the
/// internal actions of both roles.
fn alphabet(top: u64) -> Vec<RstpAction> {
    let mut actions = Vec::new();
    for s in 0..=top {
        for p in [Packet::Data(s), Packet::Ack(s)] {
            actions.push(RstpAction::Recv(p));
            actions.push(RstpAction::Send(p));
        }
    }
    actions.extend([RstpAction::Write(false), RstpAction::Write(true)]);
    for kind in [InternalKind::Wait, InternalKind::Idle] {
        actions.push(RstpAction::TransmitterInternal(kind));
        actions.push(RstpAction::ReceiverInternal(kind));
    }
    actions
}

/// Fires every action at a copy of every state, and checks that some were
/// applied and some refused, so the check is not vacuous.
fn assert_refusals_leave_state<A>(
    name: &str,
    automaton: &A,
    states: &[A::State],
    actions: &[RstpAction],
) where
    A: Automaton<Action = RstpAction>,
    A::State: PartialEq + Debug,
{
    let (mut applied, mut refused) = (0, 0);
    for state in states {
        for action in actions {
            let mut after = state.clone();
            match automaton.apply(&mut after, action) {
                Ok(()) => applied += 1,
                Err(e) => {
                    refused += 1;
                    assert_eq!(
                        &after, state,
                        "{name}: {action:?} was refused ({e}) yet changed the state"
                    );
                }
            }
        }
    }
    assert!(
        applied > 0 && refused > 0,
        "{name}: {applied} applied, {refused} refused"
    );
}

/// At every state, `enabled_into` on a buffer that already holds a
/// sentinel leaves it first and appends exactly `enabled(state)`. Two
/// sentinels: an action no automaton enables, and the state's own first
/// enabled action, which an impl that dedupes against the caller's
/// prefix would drop.
fn assert_enabled_into_appends<A>(name: &str, automaton: &A, states: &[A::State])
where
    A: Automaton<Action = RstpAction>,
    A::State: Debug,
{
    let foreign = RstpAction::Recv(Packet::Ack(u64::MAX));
    for state in states {
        let enabled = automaton.enabled(state);
        for sentinel in [foreign].into_iter().chain(enabled.first().copied()) {
            let mut buf = vec![sentinel];
            automaton.enabled_into(state, &mut buf);
            assert_eq!(
                buf.first(),
                Some(&sentinel),
                "{name}: enabled_into moved the caller's prefix in {state:?}"
            );
            assert_eq!(
                buf[1..],
                enabled[..],
                "{name}: enabled_into appended other than enabled() in {state:?}"
            );
        }
    }
}

fn check_pair<T, R>(name: &str, t: &T, r: &R, expected: &[Message])
where
    T: Automaton<Action = RstpAction>,
    R: Automaton<Action = RstpAction>,
    T::State: PartialEq + Debug,
    R::State: PartialEq + Debug,
{
    let w = walk(t, r);
    assert_eq!(
        w.written, expected,
        "{name}: the lockstep transfer wrote Y ≠ X"
    );
    let actions = alphabet(w.top_symbol.max(K) + 1);
    assert_refusals_leave_state(&format!("{name} transmitter"), t, &w.transmitter, &actions);
    assert_refusals_leave_state(&format!("{name} receiver"), r, &w.receiver, &actions);
    assert_enabled_into_appends(&format!("{name} transmitter"), t, &w.transmitter);
    assert_enabled_into_appends(&format!("{name} receiver"), r, &w.receiver);
}

#[test]
fn alpha_refusals_leave_state_untouched() {
    let x = input();
    check_pair(
        "alpha",
        &AlphaTransmitter::new(params(), x.clone()),
        &AlphaReceiver::new(),
        &x,
    );
}

#[test]
fn beta_refusals_leave_state_untouched() {
    let x = input();
    let t = BetaTransmitter::new(params(), K, &x).unwrap();
    let r = BetaReceiver::new(params(), K, x.len()).unwrap();
    check_pair("beta", &t, &r, &x);
}

#[test]
fn gamma_refusals_leave_state_untouched() {
    let x = input();
    let t = GammaTransmitter::new(params(), K, &x).unwrap();
    let r = GammaReceiver::new(params(), K, x.len()).unwrap();
    check_pair("gamma", &t, &r, &x);
}

#[test]
fn altbit_refusals_leave_state_untouched() {
    let x = input();
    let t = AltBitTransmitter::new(params(), x.clone(), None);
    check_pair("altbit", &t, &AltBitReceiver::new(), &x);
}

#[test]
fn framed_refusals_leave_state_untouched() {
    let x = input();
    let t = FramedTransmitter::new(params(), K, &x).unwrap();
    let r = FramedReceiver::new(params(), K).unwrap();
    check_pair("framed", &t, &r, &x);
}

#[test]
fn stenning_refusals_leave_state_untouched() {
    let x = input();
    let t = StenningTransmitter::new(params(), x.clone(), None);
    check_pair("stenning", &t, &StenningReceiver::new(), &x);
}

#[test]
fn pipelined_refusals_leave_state_untouched() {
    let x = input();
    let t = PipelinedTransmitter::new(params(), K, &x).unwrap();
    let r = PipelinedReceiver::new(params(), K, x.len()).unwrap();
    check_pair("pipelined", &t, &r, &x);
}

#[test]
fn stab_stenning_refusals_leave_state_untouched() {
    let x = input();
    let t = StabStenningTransmitter::new(params(), x.clone(), None);
    check_pair("stab-stenning", &t, &StabStenningReceiver::new(), &x);
}

#[test]
fn stab_beta_refusals_leave_state_untouched() {
    let x = input();
    let t = stab_beta_transmitter(params(), K, &x).unwrap();
    let r = StabBetaReceiver::new(params(), K, x.len()).unwrap();
    check_pair("stab-beta", &t, &r, &x);
}

#[test]
fn channel_and_composition_refusals_leave_state_untouched() {
    let x = input();
    let t = BetaTransmitter::new(params(), K, &x).unwrap();
    let r = BetaReceiver::new(params(), K, x.len()).unwrap();
    let w = walk(&t, &r);
    let actions = alphabet(K + 1);
    assert_refusals_leave_state("channel", &Channel::new(), &w.channel, &actions);
    // The receiver sits on the left, so a delivery of a packet that is not
    // in flight is first absorbed by the receiver and then refused by the
    // channel: the composition must undo the receiver's move.
    let system = Compose::new(r, Compose::new(Channel::new(), t));
    assert_refusals_leave_state("beta ∘ channel ∘ beta", &system, &w.system, &actions);
    assert_enabled_into_appends("channel", &Channel::new(), &w.channel);
    assert_enabled_into_appends("beta ∘ channel ∘ beta", &system, &w.system);
    // A channel holding two distinct packets, and one packet twice, after
    // a prefix that already names one of them.
    let mut cs = Channel::new().initial_state();
    for p in [Packet::Data(1), Packet::Data(2), Packet::Data(1)] {
        Channel::new().apply(&mut cs, &RstpAction::Send(p)).unwrap();
    }
    let mut buf = vec![RstpAction::Recv(Packet::Data(2))];
    Channel::new().enabled_into(&cs, &mut buf);
    assert_eq!(
        buf,
        [Packet::Data(2), Packet::Data(1), Packet::Data(2)].map(RstpAction::Recv),
        "one recv per distinct packet, judged apart from the caller's prefix"
    );
    let start = system.initial_state();
    let stray = RstpAction::Recv(Packet::Data(1));
    assert_ne!(system.left().step(&start.0, &stray).unwrap(), start.0);
    let mut state = start.clone();
    assert!(system.apply(&mut state, &stray).is_err());
    assert_eq!(state, start, "a refused shared delivery moved the receiver");
}

#[test]
fn stabilizing_refusals_leave_corrupted_states_untouched() {
    // Corruption can leave registers outside their domains; the stabilizing
    // automata normalize before acting, and a refusal must not leave a
    // half-normalized state behind.
    let x = input();
    let actions = alphabet(32);
    let t = StabStenningTransmitter::new(params(), x.clone(), None);
    let mut ts = t.initial_state();
    (ts.next, ts.timer, ts.strikes) = (x.len() + 3, 1_000, 50);
    let mut flushing = ts.clone();
    flushing.next = 2;
    flushing.phase = StabPhase::Flush { left: 0 };
    assert_refusals_leave_state("stab-stenning transmitter", &t, &[ts, flushing], &actions);

    let r = StabStenningReceiver::new();
    let mut rs = r.initial_state();
    (rs.expected, rs.received, rs.written, rs.pending_ack) = (17, vec![true, false], 9, Some(999));
    let mut acking = rs.clone();
    acking.pending_ack = Some(3);
    assert_refusals_leave_state("stab-stenning receiver", &r, &[rs, acking], &actions);

    let r = StabBetaReceiver::new(params(), K, x.len()).unwrap();
    let mut rs = r.initial_state();
    (rs.decoded, rs.written, rs.silent_steps) = (vec![true], 9, 1_000);
    let mut partial = rs.clone();
    partial.burst.insert(1);
    assert_refusals_leave_state("stab-beta receiver", &r, &[rs, partial], &actions);
}

/// An automaton whose enabled set `Driven` sees through its one reused
/// buffer: `fork` enables two sends at once; otherwise one send is
/// enabled while armed, and a `recv` re-arms it.
struct Blinker {
    fork: bool,
}

impl Automaton for Blinker {
    type Action = RstpAction;
    type State = bool;

    fn initial_state(&self) -> bool {
        true
    }

    fn classify(&self, action: &RstpAction) -> Option<ActionClass> {
        match action {
            RstpAction::Send(_) => Some(ActionClass::Output),
            RstpAction::Recv(_) => Some(ActionClass::Input),
            _ => None,
        }
    }

    fn enabled_into(&self, armed: &bool, out: &mut Vec<RstpAction>) {
        if self.fork {
            out.extend([Packet::Data(0), Packet::Data(1)].map(RstpAction::Send));
        } else if *armed {
            out.push(RstpAction::Send(Packet::Data(7)));
        }
    }

    fn apply(&self, armed: &mut bool, action: &RstpAction) -> Result<(), StepError> {
        match action {
            RstpAction::Send(_) => *armed = false,
            RstpAction::Recv(_) => *armed = true,
            other => return Err(StepError::unknown(other)),
        }
        Ok(())
    }
}

#[test]
fn driven_refuses_two_enabled_actions_and_names_both() {
    let mut driven = Driven::new(Blinker { fork: true });
    match driven.step() {
        Err(NetError::Determinism { enabled }) => assert_eq!(
            enabled,
            [Packet::Data(0), Packet::Data(1)].map(|p| format!("{:?}", RstpAction::Send(p)))
        ),
        other => panic!("two enabled actions must be a determinism error: {other:?}"),
    }
}

#[test]
fn driven_clears_its_buffer_before_every_step() {
    // A buffer left holding the last step's action would make the step
    // after a send fire it again instead of quiescing.
    let mut driven = Driven::new(Blinker { fork: false });
    for round in 0..3 {
        assert_eq!(
            driven.step().unwrap(),
            StepEffect::Sent(Packet::Data(7)),
            "round {round}"
        );
        assert_eq!(
            driven.step().unwrap(),
            StepEffect::Quiescent,
            "round {round}"
        );
        assert_eq!(
            driven.step().unwrap(),
            StepEffect::Quiescent,
            "round {round}"
        );
        driven.apply_recv(Packet::Ack(0)).unwrap();
    }
}
