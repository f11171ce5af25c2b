//! Query specification.
//!
//! All query semantics of the paper take "a certain reference state or
//! trajectory `q` and a set of timesteps `T`" (Section 3.2). A query state is
//! a trivial query trajectory, so [`Query`] stores the timestamps and one
//! position per timestamp, repeating a query state's point.

use crate::govern::QueryPhase;
use crate::results::QueryStats;
use crate::Timestamp;
use ust_spatial::Point;

/// Errors raised when constructing or evaluating queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query timestamp set was empty.
    EmptyTimes,
    /// Query timestamps were not strictly increasing.
    UnsortedTimes,
    /// The probability threshold was outside `[0, 1]`.
    InvalidThreshold {
        /// The offending threshold.
        tau: f64,
    },
    /// An object's observations contradict its a-priori model, so no
    /// a-posteriori model exists.
    Adaptation {
        /// The object whose adaptation failed.
        object: crate::ObjectId,
        /// The underlying adaptation error.
        error: ust_markov::AdaptError,
    },
    /// An object id that does not exist in the trajectory database was
    /// requested (previously misreported as [`AdaptError::NoObservations`]).
    ///
    /// [`AdaptError::NoObservations`]: ust_markov::AdaptError::NoObservations
    UnknownObject {
        /// The id no database object carries.
        object: crate::ObjectId,
    },
    /// The evaluation ran past its [`QueryBudget`](crate::govern::QueryBudget)
    /// deadline in a phase with no degradation semantics (see the contract in
    /// [`crate::govern`]). Transient: never cached, retry may succeed.
    DeadlineExceeded {
        /// The phase whose checkpoint observed the breach.
        phase: QueryPhase,
        /// Partial statistics gathered up to the breach (boxed to keep the
        /// non-budget variants small).
        stats: Box<QueryStats>,
    },
    /// The evaluation's [`CancelToken`](crate::govern::CancelToken) was
    /// cancelled. Transient: never cached.
    Cancelled {
        /// The phase whose checkpoint observed the cancellation.
        phase: QueryPhase,
        /// Partial statistics gathered up to the cancellation.
        stats: Box<QueryStats>,
    },
    /// A deterministic resource cap of the budget was exceeded. Unlike the
    /// deadline this is reproducible — the same query against the same cap
    /// always stops at the same point.
    BudgetExhausted {
        /// The phase whose checkpoint observed the breach.
        phase: QueryPhase,
        /// Which resource blew the cap (e.g. `"diamonds"`).
        resource: &'static str,
        /// The configured cap.
        limit: usize,
        /// Partial statistics gathered up to the breach.
        stats: Box<QueryStats>,
    },
}

impl QueryError {
    /// The partial [`QueryStats`] a budget error carries (`None` for the
    /// validation and adaptation errors, which happen before any phase
    /// accounting exists).
    pub fn partial_stats(&self) -> Option<&QueryStats> {
        match self {
            QueryError::DeadlineExceeded { stats, .. }
            | QueryError::Cancelled { stats, .. }
            | QueryError::BudgetExhausted { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Mutable access for the engine layers that enrich partial stats on the
    /// way out (candidate counts, phase timings).
    pub(crate) fn partial_stats_mut(&mut self) -> Option<&mut QueryStats> {
        match self {
            QueryError::DeadlineExceeded { stats, .. }
            | QueryError::Cancelled { stats, .. }
            | QueryError::BudgetExhausted { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Whether this error is transient — tied to one evaluation's budget
    /// rather than to the (immutable) data. Transient errors must never
    /// enter the adaptation cache's `Failed` slots: a later query with a
    /// fresh budget can succeed where this one was cut short.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QueryError::DeadlineExceeded { .. }
                | QueryError::Cancelled { .. }
                | QueryError::BudgetExhausted { .. }
        )
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyTimes => write!(f, "query needs at least one timestamp"),
            QueryError::UnsortedTimes => write!(f, "query timestamps must be strictly increasing"),
            QueryError::InvalidThreshold { tau } => {
                write!(f, "probability threshold {tau} is outside [0, 1]")
            }
            QueryError::Adaptation { object, error } => {
                write!(f, "model adaptation failed for object {object}: {error}")
            }
            QueryError::UnknownObject { object } => {
                write!(f, "the database has no object with id {object}")
            }
            QueryError::DeadlineExceeded { phase, .. } => {
                write!(f, "query deadline exceeded during the {phase} phase")
            }
            QueryError::Cancelled { phase, .. } => {
                write!(f, "query cancelled during the {phase} phase")
            }
            QueryError::BudgetExhausted { phase, resource, limit, .. } => {
                write!(f, "query budget exhausted during the {phase} phase: more than {limit} {resource}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A probabilistic NN query input: the reference state/trajectory `q` and the
/// query timestamps `T`, with one query position per timestamp.
#[derive(Debug, Clone)]
pub struct Query {
    times: Vec<Timestamp>,
    positions: Vec<Point>,
}

impl Query {
    /// A query with a constant reference location (e.g. the bank of the
    /// robbery example) over the given timestamps.
    pub fn at_point(
        location: Point,
        times: impl IntoIterator<Item = Timestamp>,
    ) -> Result<Self, QueryError> {
        let times = Self::validate_times(times)?;
        let positions = vec![location; times.len()];
        Ok(Query { times, positions })
    }

    /// A query given by a certain reference trajectory: one position per query
    /// timestamp, in any order. A timestamp given twice keeps its last
    /// position.
    pub fn with_trajectory(
        positions: impl IntoIterator<Item = (Timestamp, Point)>,
    ) -> Result<Self, QueryError> {
        let mut pairs: Vec<(Timestamp, Point)> = positions.into_iter().collect();
        // Stable, so the copies of a timestamp stay in input order.
        pairs.sort_by_key(|&(t, _)| t);
        pairs.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                kept.1 = later.1;
            }
            repeated
        });
        if pairs.is_empty() {
            return Err(QueryError::EmptyTimes);
        }
        let (times, positions) = pairs.into_iter().unzip();
        Ok(Query { times, positions })
    }

    fn validate_times(
        times: impl IntoIterator<Item = Timestamp>,
    ) -> Result<Vec<Timestamp>, QueryError> {
        let times: Vec<Timestamp> = times.into_iter().collect();
        if times.is_empty() {
            return Err(QueryError::EmptyTimes);
        }
        if times.windows(2).any(|w| w[0] >= w[1]) {
            return Err(QueryError::UnsortedTimes);
        }
        Ok(times)
    }

    /// The query timestamps `T`, strictly increasing.
    #[inline]
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// Number of query timestamps `|T|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Queries always have at least one timestamp.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First query timestamp.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.times[0]
    }

    /// Last query timestamp.
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.times[self.times.len() - 1]
    }

    /// The query positions, one per timestamp of [`times`](Self::times).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The query position at timestamp `t`, or `None` if `t` is not a query
    /// timestamp.
    pub fn position_at(&self, t: Timestamp) -> Option<Point> {
        self.times.binary_search(&t).ok().map(|i| self.positions[i])
    }

    /// Validates a probability threshold.
    pub fn validate_threshold(tau: f64) -> Result<(), QueryError> {
        if !(0.0..=1.0).contains(&tau) || tau.is_nan() {
            Err(QueryError::InvalidThreshold { tau })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_query_construction() {
        let q = Query::at_point(Point::new(1.0, 2.0), vec![3, 4, 5]).unwrap();
        assert_eq!(q.times(), &[3, 4, 5]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.start(), 3);
        assert_eq!(q.end(), 5);
        assert_eq!(q.position_at(4), Some(Point::new(1.0, 2.0)));
        assert_eq!(q.position_at(99), None, "99 is no query timestamp");
        assert_eq!(q.positions(), &[Point::new(1.0, 2.0); 3]);
    }

    #[test]
    fn invalid_times_are_rejected() {
        assert_eq!(
            Query::at_point(Point::ORIGIN, Vec::<Timestamp>::new()).unwrap_err(),
            QueryError::EmptyTimes
        );
        assert_eq!(
            Query::at_point(Point::ORIGIN, vec![1, 1]).unwrap_err(),
            QueryError::UnsortedTimes
        );
        assert_eq!(
            Query::at_point(Point::ORIGIN, vec![5, 2]).unwrap_err(),
            QueryError::UnsortedTimes
        );
    }

    #[test]
    fn trajectory_query_positions() {
        let q = Query::with_trajectory(vec![
            (2, Point::new(0.0, 0.0)),
            (1, Point::new(1.0, 0.0)),
            (3, Point::new(2.0, 0.0)),
        ])
        .unwrap();
        assert_eq!(q.times(), &[1, 2, 3]);
        assert_eq!(q.position_at(1), Some(Point::new(1.0, 0.0)));
        assert_eq!(q.position_at(4), None);
        assert_eq!(
            Query::with_trajectory(Vec::new()).unwrap_err(),
            QueryError::EmptyTimes
        );
    }

    #[test]
    fn a_repeated_timestamp_keeps_its_last_position() {
        let q = Query::with_trajectory(vec![
            (5, Point::new(0.0, 0.0)),
            (2, Point::new(1.0, 0.0)),
            (5, Point::new(2.0, 0.0)),
            (3, Point::new(3.0, 0.0)),
            (5, Point::new(4.0, 0.0)),
        ])
        .unwrap();
        assert_eq!(q.times(), &[2, 3, 5]);
        assert_eq!(
            q.positions(),
            &[Point::new(1.0, 0.0), Point::new(3.0, 0.0), Point::new(4.0, 0.0)]
        );
        for (&t, &p) in q.times().iter().zip(q.positions()) {
            assert_eq!(q.position_at(t), Some(p));
        }
    }

    #[test]
    fn unknown_object_error_display() {
        let err = QueryError::UnknownObject { object: 17 };
        assert_eq!(err.to_string(), "the database has no object with id 17");
        assert_ne!(
            err,
            QueryError::Adaptation {
                object: 17,
                error: ust_markov::AdaptError::NoObservations,
            },
            "a missing object is not an adaptation failure"
        );
    }

    #[test]
    fn threshold_validation() {
        assert!(Query::validate_threshold(0.0).is_ok());
        assert!(Query::validate_threshold(1.0).is_ok());
        assert!(Query::validate_threshold(-0.1).is_err());
        assert!(Query::validate_threshold(1.1).is_err());
        assert!(Query::validate_threshold(f64::NAN).is_err());
    }
}
