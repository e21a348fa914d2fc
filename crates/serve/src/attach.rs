//! The unified attach API: one [`AttachSpec`] describes *what* to attach
//! (an untyped [`Query`] or a typed
//! [`TypedQuery<R>`](vqpy_core::TypedQuery)) and *where delivery starts*
//! (live-only, or replayed from a past instant), and one
//! [`StreamServer::attach`] / [`StreamSupervisor::attach`] entry point per
//! frontend accepts it — every cell of the (untyped | typed) × (live |
//! from-past) × (server | supervisor) grid is a spec:
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use std::time::Instant;
//! # use vqpy_core::frontend::{library, predicate::Pred};
//! # use vqpy_core::{Query, VqpySession};
//! # use vqpy_models::ModelZoo;
//! # use vqpy_serve::{AttachSpec, ServeConfig, ServeSession};
//! # use vqpy_video::{presets, Scene, SyntheticVideo};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let session = Arc::new(VqpySession::new(ModelZoo::standard()));
//! # let server = session.serve(ServeConfig::default());
//! # let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 7, 2.0));
//! # let stream = server.open_stream(Arc::new(video));
//! # let query = Query::builder("RedCar")
//! #     .vobj("car", library::vehicle_schema())
//! #     .frame_constraint(Pred::gt("car", "score", 0.5))
//! #     .build()?;
//! // Live untyped attach — a bare query converts to a spec:
//! let sub = server.attach(stream, Arc::clone(&query))?;
//!
//! // Replay from a past instant, explicitly spelled:
//! let nine_forty = Instant::now();
//! let replayed = server.attach(stream, AttachSpec::new(query).from(nine_forty))?;
//! assert!(replayed.replay().is_some());
//! # Ok(())
//! # }
//! ```
//!
//! A typed attach is `AttachSpec::new(query).typed::<R>()`, or simply
//! passing `&TypedQuery<R>` (which converts to an already-typed spec).
//! The mode is a zero-sized type parameter ([`Untyped`] or [`Typed<R>`]),
//! so the subscription type the entry point returns is decided at compile
//! time — there is no runtime downcast anywhere on the path.
//!
//! [`StreamServer::attach`]: crate::StreamServer::attach
//! [`StreamSupervisor::attach`]: crate::StreamSupervisor::attach

use crate::server::StreamId;
use crate::subscription::Subscription;
use crate::typed::TypedSubscription;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;
use vqpy_core::{FrameHit, Query, TypedHit, TypedQuery};
use vqpy_models::{DecodeError, FromRow, Value};

mod sealed {
    pub trait Sealed {}
}

/// How an attached query's events are delivered: raw
/// ([`Untyped`] → [`Subscription`]) or decoded
/// ([`Typed<R>`] → [`TypedSubscription<R>`]). Sealed: the two modes are
/// the whole universe, so `attach` signatures stay evolvable.
pub trait AttachMode: sealed::Sealed {
    /// The subscription type this mode hands back.
    type Sub;
    /// Wraps the raw subscription into this mode's receiving end.
    fn wrap(sub: Subscription) -> Self::Sub;
}

/// Marker for raw event delivery: hits arrive as
/// [`ServeEvent`](crate::ServeEvent)s with `(String, Value)` rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Untyped;

impl sealed::Sealed for Untyped {}

impl AttachMode for Untyped {
    type Sub = Subscription;

    fn wrap(sub: Subscription) -> Subscription {
        sub
    }
}

/// Marker for decoded event delivery: every hit decodes into rows of `R`
/// (see [`TypedSubscription`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Typed<R>(PhantomData<fn() -> R>);

impl<R> sealed::Sealed for Typed<R> {}

impl<R: FromRow> AttachMode for Typed<R> {
    type Sub = TypedSubscription<R>;

    fn wrap(sub: Subscription) -> TypedSubscription<R> {
        TypedSubscription::wrap(sub)
    }
}

/// A description of one attachment: the query, the delivery mode
/// (type-state: [`Untyped`] or [`Typed<R>`]), and optionally a past
/// instant to replay from. Built with [`AttachSpec::new`] and the
/// [`typed`](AttachSpec::typed) / [`from`](AttachSpec::from) combinators,
/// or converted from a bare `Arc<Query>` / `&TypedQuery<R>`.
#[derive(Debug, Clone)]
pub struct AttachSpec<M: AttachMode = Untyped> {
    pub(crate) query: Arc<Query>,
    pub(crate) from: Option<Instant>,
    _mode: PhantomData<M>,
}

impl AttachSpec<Untyped> {
    /// A live, untyped attachment of `query` (the default mode of the old
    /// `attach` method).
    pub fn new(query: Arc<Query>) -> Self {
        Self {
            query,
            from: None,
            _mode: PhantomData,
        }
    }

    /// Switches the spec to typed delivery: every hit decodes into rows
    /// of `R`. The caller asserts the query's frame output decodes as `R`
    /// (a wrong assertion surfaces as a [`DecodeError`] on the first hit,
    /// never a panic). Converting from a `&TypedQuery<R>` instead makes
    /// the assertion hold by construction.
    pub fn typed<R: FromRow>(self) -> AttachSpec<Typed<R>> {
        AttachSpec {
            query: self.query,
            from: self.from,
            _mode: PhantomData,
        }
    }
}

impl<M: AttachMode> AttachSpec<M> {
    /// Starts delivery from a past instant: the stored history is
    /// replayed (model stages answered from the
    /// [`ServeConfig::store`](crate::ServeConfig::store)) and the query
    /// splices into the live stream once the replay catches up. Requires
    /// a configured store at attach time.
    // Builder verb, deliberately mirroring "attach from"; the `From`
    // conversions into `AttachSpec` are separate impls.
    #[allow(clippy::should_implement_trait)]
    pub fn from(mut self, instant: Instant) -> Self {
        self.from = Some(instant);
        self
    }

    /// The query this spec attaches.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// The replay start, when this is a from-past attachment.
    pub fn replay_from(&self) -> Option<Instant> {
        self.from
    }
}

impl From<Arc<Query>> for AttachSpec<Untyped> {
    fn from(query: Arc<Query>) -> Self {
        AttachSpec::new(query)
    }
}

impl From<&Arc<Query>> for AttachSpec<Untyped> {
    fn from(query: &Arc<Query>) -> Self {
        AttachSpec::new(Arc::clone(query))
    }
}

impl<R: FromRow> From<&TypedQuery<R>> for AttachSpec<Typed<R>> {
    fn from(query: &TypedQuery<R>) -> Self {
        AttachSpec {
            query: Arc::clone(query.query()),
            from: None,
            _mode: PhantomData,
        }
    }
}

/// The result of a unified attach: the mode's subscription plus, for
/// from-past attachments, the replay's stream id. A replay is a stream id
/// you `step`: drive it with [`StreamServer::step`](crate::StreamServer::step)
/// or [`StreamServer::run_replay`](crate::StreamServer::run_replay), or let
/// a supervisor shard do it. Dereferences to the subscription, and the
/// by-value `collect` passes through, so most call sites use it exactly
/// like the subscription itself.
#[derive(Debug)]
pub struct Attached<S> {
    sub: S,
    replay: Option<StreamId>,
}

impl<S> Attached<S> {
    pub(crate) fn new(sub: S, replay: Option<StreamId>) -> Self {
        Self { sub, replay }
    }

    /// The replay's stream id, for from-past attachments on a bare
    /// server (a supervisor schedules the replay itself and hides the
    /// id). `None` for live attachments.
    pub fn replay(&self) -> Option<StreamId> {
        self.replay
    }

    /// Unwraps to the bare subscription.
    pub fn into_inner(self) -> S {
        self.sub
    }
}

impl<S> Deref for Attached<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.sub
    }
}

impl<S> DerefMut for Attached<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.sub
    }
}

impl Attached<Subscription> {
    /// Drains to the terminal event (see [`Subscription::collect`]).
    pub fn collect(self) -> (Vec<FrameHit>, Option<Value>) {
        self.sub.collect()
    }
}

impl<R: FromRow> Attached<TypedSubscription<R>> {
    /// Drains to the terminal event, decoded (see
    /// [`TypedSubscription::collect`]).
    pub fn collect(self) -> Result<(Vec<TypedHit<R>>, Option<Value>), DecodeError> {
        self.sub.collect()
    }
}
