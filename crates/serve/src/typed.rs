//! Typed live subscriptions: the serving half of the typed frontend.
//!
//! Attaching a [`TypedQuery<R>`](vqpy_core::TypedQuery) (pass `&query` to
//! [`StreamServer::attach`] / [`StreamSupervisor::attach`], or build an
//! [`AttachSpec`](crate::AttachSpec) with
//! [`typed`](crate::AttachSpec::typed)) returns a
//! [`TypedSubscription<R>`] that decodes every
//! [`ServeEvent::Hit`] into rows of `R` — live consumers never touch
//! `(String, Value)` pairs. The wrapper delivers the *exact* event
//! sequence of the underlying untyped [`Subscription`] (the equivalence
//! tests prove it);
//! decoding failures surface as [`DecodeError`]s, never panics.
//!
//! [`StreamServer::attach`]: crate::StreamServer::attach
//! [`StreamSupervisor::attach`]: crate::StreamSupervisor::attach

use crate::subscription::{
    ServeEvent, StoreFaultNotice, StreamFault, Subscription, SubscriptionClosed, SubscriptionId,
};
use std::marker::PhantomData;
use std::time::Duration;
use vqpy_core::TypedHit;
use vqpy_models::{DecodeError, FromRow, Value};

/// A decoded incremental result event: the typed counterpart of
/// [`ServeEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TypedServeEvent<R> {
    /// A frame matched the query, with its decoded rows.
    Hit(TypedHit<R>),
    /// The stream's worker panicked and the restart policy handled it
    /// (passed through undecoded; see
    /// [`StreamFault`]). Not terminal when the fault was resumed.
    StreamFault(StreamFault),
    /// A replay chunk hit a damaged stored segment; its frames were
    /// recomputed instead (passed through undecoded; never terminal).
    StoreFault(StoreFaultNotice),
    /// The stream ended; carries the final video aggregate, if declared.
    End {
        /// The query's video-level aggregate over the frames observed
        /// since attach.
        video_value: Option<Value>,
    },
    /// The query was detached at a batch boundary.
    Detached {
        /// The aggregate up to the detach boundary, if declared.
        video_value: Option<Value>,
    },
}

/// The receiving end of one typed attached query: a
/// [`Subscription`] that decodes each hit into `R` on receipt.
///
/// Dropping it has the same semantics as dropping the untyped
/// subscription: the channel closes but the query keeps executing until
/// detached.
#[derive(Debug)]
pub struct TypedSubscription<R> {
    inner: Subscription,
    _row: PhantomData<fn() -> R>,
}

impl<R: FromRow> TypedSubscription<R> {
    /// Wraps an untyped subscription. The caller asserts the underlying
    /// query's frame output decodes as `R` (which attaching a
    /// `&TypedQuery<R>` guarantees by construction); a wrong assertion
    /// surfaces as a [`DecodeError`] on the first hit.
    pub fn wrap(inner: Subscription) -> Self {
        Self {
            inner,
            _row: PhantomData,
        }
    }

    /// This subscription's identifier (pass to `detach`).
    pub fn id(&self) -> SubscriptionId {
        self.inner.id()
    }

    /// Name of the subscribed query.
    pub fn query_name(&self) -> &str {
        self.inner.query_name()
    }

    /// Blocks for the next event, decoded. `None` once the channel is
    /// closed (after `End`/`Detached` was consumed or the stream was
    /// dropped).
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use vqpy_core::frontend::library;
    /// use vqpy_core::{TypedQuery, VqpySession};
    /// use vqpy_models::ModelZoo;
    /// use vqpy_serve::{ServeConfig, ServeSession, TypedServeEvent};
    /// use vqpy_video::{presets, Scene, SyntheticVideo};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let session = Arc::new(VqpySession::new(ModelZoo::standard()));
    /// let server = Arc::new(session.serve(ServeConfig::default()));
    /// let video = SyntheticVideo::new(Scene::generate(presets::jackson(), 3, 2.0));
    /// let stream = server.open_stream(Arc::new(video));
    ///
    /// let car = library::vehicle().alias("car");
    /// let query = TypedQuery::builder("AnyCar")
    ///     .object(&car)
    ///     .filter(car.score().gt(0.5))
    ///     .select((car.track_id().optional(), car.bbox()))
    ///     .build()?;
    /// let sub = server.attach(stream, &query)?;
    ///
    /// let driver = {
    ///     let server = Arc::clone(&server);
    ///     std::thread::spawn(move || server.run_to_end(stream).unwrap())
    /// };
    /// let mut rows = 0;
    /// while let Some(event) = sub.recv() {
    ///     match event? {
    ///         TypedServeEvent::Hit(hit) => rows += hit.rows.len(),
    ///         TypedServeEvent::StreamFault(fault) => eprintln!("fault: {}", fault.message),
    ///         TypedServeEvent::StoreFault(_) => {}
    ///         TypedServeEvent::End { .. } | TypedServeEvent::Detached { .. } => break,
    ///     }
    /// }
    /// driver.join().unwrap();
    /// # let _ = rows;
    /// # Ok(())
    /// # }
    /// ```
    pub fn recv(&self) -> Option<Result<TypedServeEvent<R>, DecodeError>> {
        self.inner.recv().map(decode_event)
    }

    /// Non-blocking receive; `Ok(None)` when no event is ready yet.
    pub fn try_recv(
        &self,
    ) -> Result<Option<Result<TypedServeEvent<R>, DecodeError>>, SubscriptionClosed> {
        Ok(self.inner.try_recv()?.map(decode_event))
    }

    /// Blocks up to `timeout`; `Ok(None)` on timeout.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<Result<TypedServeEvent<R>, DecodeError>>, SubscriptionClosed> {
        Ok(self.inner.recv_timeout(timeout)?.map(decode_event))
    }

    /// Drains to the terminal event, returning every decoded hit plus the
    /// final video aggregate. Blocks until the stream ends or the query is
    /// detached; the first decode failure aborts the drain.
    pub fn collect(self) -> Result<(Vec<TypedHit<R>>, Option<Value>), DecodeError> {
        let mut hits = Vec::new();
        let mut video_value = None;
        while let Some(event) = self.inner.recv() {
            match decode_event::<R>(event)? {
                TypedServeEvent::Hit(h) => hits.push(h),
                // Resumed faults are informational; an unresumed fault is
                // followed by the channel closing, ending the loop. Store
                // faults are always informational (frames recompute).
                TypedServeEvent::StreamFault(_) | TypedServeEvent::StoreFault(_) => {}
                TypedServeEvent::End { video_value: v }
                | TypedServeEvent::Detached { video_value: v } => {
                    video_value = v;
                    break;
                }
            }
        }
        Ok((hits, video_value))
    }

    /// Unwraps back to the untyped subscription (raw `ServeEvent`s).
    pub fn into_inner(self) -> Subscription {
        self.inner
    }
}

fn decode_event<R: FromRow>(event: ServeEvent) -> Result<TypedServeEvent<R>, DecodeError> {
    Ok(match event {
        ServeEvent::Hit(hit) => {
            TypedServeEvent::Hit(vqpy_core::frontend::typed::decode_frame_hit(&hit)?)
        }
        ServeEvent::StreamFault(fault) => TypedServeEvent::StreamFault(fault),
        ServeEvent::StoreFault(fault) => TypedServeEvent::StoreFault(fault),
        ServeEvent::End { video_value } => TypedServeEvent::End { video_value },
        ServeEvent::Detached { video_value } => TypedServeEvent::Detached { video_value },
    })
}
