//! Actors: the unit of concurrency inside the simulated jungle.
//!
//! Every protocol participant — a SmartSockets hub, a GAT broker, an Ibis
//! daemon, a worker proxy — is an [`Actor`] pinned to a
//! simulated host. Actors communicate exclusively by messages scheduled
//! through the engine, which is what makes runs deterministic.

use crate::engine::Ctx;
use std::any::Any;
use std::fmt;

/// Identifies an actor inside one [`crate::Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A message delivered to an actor.
///
/// The payload is dynamically typed: each layer of the stack defines its own
/// message enums and downcasts on receipt (the same role Java serialization
/// plays in the real Ibis). `from` is `None` for self-scheduled timers and
/// engine notifications.
pub struct Msg {
    /// Sending actor, if any.
    pub from: Option<ActorId>,
    /// Opaque payload; receivers downcast to their protocol type.
    pub payload: Box<dyn Any>,
}

impl Msg {
    /// Build a message with a payload.
    pub fn new(from: Option<ActorId>, payload: impl Any) -> Msg {
        Msg { from, payload: Box::new(payload) }
    }

    /// Try to take the payload as a `T`, returning the message back on
    /// type mismatch so callers can try another protocol.
    pub fn downcast<T: Any>(self) -> Result<(Option<ActorId>, T), Msg> {
        let Msg { from, payload } = self;
        match payload.downcast::<T>() {
            Ok(p) => Ok((from, *p)),
            Err(payload) => Err(Msg { from, payload }),
        }
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Msg{{from: {:?}}}", self.from)
    }
}

/// Engine-generated notifications actors may receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineNotice {
    /// The host this actor is placed on has crashed; the actor will receive
    /// no further messages after this one.
    HostCrashed,
    /// A previously sent reliable message could not be delivered because the
    /// destination host is down.
    DeliveryFailed {
        /// The actor the message was addressed to.
        to: ActorId,
    },
}

/// A simulation participant.
pub trait Actor {
    /// Handle one message. `ctx` provides the clock, message sending,
    /// timers, compute-time accounting and topology queries.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg);

    /// Called once when the actor is installed; default does nothing.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
}
