//! Scripted events and the ground-truth interactions they produce.
//!
//! Events are the simulator's way of planting *true positives* for
//! interaction queries (person hits ball, suspect gets into car, hit-and-run)
//! so that accuracy scoring has a known answer key.

use crate::entity::EntityId;

/// The kind of a ground-truth interaction between two entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InteractionKind {
    /// Person strikes a ball (V-COCO-style HOI, §5.3 Q6).
    Hit,
    /// Person gets into a vehicle (Figure 9/10 suspect query).
    GetInto,
    /// Vehicle collides with / nearly collides with a person (Figure 8
    /// hit-and-run, first phase).
    Collide,
}

impl InteractionKind {
    /// Lowercase name used in query predicates.
    pub fn as_str(&self) -> &'static str {
        match self {
            InteractionKind::Hit => "hit",
            InteractionKind::GetInto => "get_into",
            InteractionKind::Collide => "collide",
        }
    }
}

impl std::fmt::Display for InteractionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A scripted event: during `[t0, t1]` the interaction is ground truth on
/// every frame where both participants are visible.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedEvent {
    pub kind: InteractionKind,
    /// The acting entity (person for `Hit`/`GetInto`, vehicle for `Collide`).
    pub subject: EntityId,
    /// The entity acted upon.
    pub object: EntityId,
    pub t0: f64,
    pub t1: f64,
}

impl ScriptedEvent {
    /// Creates an event; `t0 <= t1` is enforced by swapping.
    pub fn new(
        kind: InteractionKind,
        subject: EntityId,
        object: EntityId,
        t0: f64,
        t1: f64,
    ) -> Self {
        let (t0, t1) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        Self {
            kind,
            subject,
            object,
            t0,
            t1,
        }
    }

    /// Whether the event is active at time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.t0 && t <= self.t1
    }
}

/// A ground-truth interaction on a specific frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    pub kind: InteractionKind,
    pub subject: EntityId,
    pub object: EntityId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_window_is_inclusive_and_normalized() {
        let e = ScriptedEvent::new(InteractionKind::Hit, 1, 2, 5.0, 3.0);
        assert_eq!(e.t0, 3.0);
        assert_eq!(e.t1, 5.0);
        assert!(e.active_at(3.0));
        assert!(e.active_at(4.0));
        assert!(e.active_at(5.0));
        assert!(!e.active_at(5.01));
    }

    #[test]
    fn kind_names() {
        assert_eq!(InteractionKind::Hit.as_str(), "hit");
        assert_eq!(InteractionKind::GetInto.to_string(), "get_into");
    }
}
