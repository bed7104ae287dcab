//! Error vocabulary of the functional stack: the device-level
//! [`CoreError`] and the three layered failures it can wrap.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the engine.
///
/// Display strings of the device-level variants are stable — the
/// fault-campaign corpus records them verbatim — and service failures
/// keep their cause reachable through [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Block address beyond the configured capacity.
    OutOfRange(u64),
    /// The block was disabled (worn out) and must not be accessed.
    Disabled(u64),
    /// The error pattern exceeds the scheme's combined correction
    /// capability (a detected uncorrectable error — a crash, not SDC).
    Uncorrectable,
    /// More than one chip appears failed; the rank is lost.
    MultiChipFailure,
    /// No layer in the composed stack handles this access kind. The
    /// payload is the access kind name (`"restripe"`, `"patrol_step"`,
    /// ...). A routing miss, not a device fault.
    Unsupported(&'static str),
    /// A Write-CRC protected transfer exhausted its retry budget.
    LinkFailed,
    /// A fault-injection rate outside `[0, 1)`, or NaN; nothing was
    /// injected.
    InvalidRber,
    /// The request never reached the memory pipeline: a service-layer
    /// queue or worker failure. The wrapped [`ServiceError`] is also
    /// reachable through [`std::error::Error::source`].
    Service(ServiceError),
    /// Crash recovery could not reconstruct the durable image (corrupt
    /// intent log or metadata). The wrapped [`RecoveryError`] is also
    /// reachable through [`std::error::Error::source`].
    Recovery(RecoveryError),
    /// A replicated-tier failure: the cluster could not assemble a
    /// quorum or ran out of replicas. The wrapped [`ClusterError`] is
    /// also reachable through [`std::error::Error::source`], and its own
    /// source (when present) is the per-node [`CoreError`] that sank the
    /// last replica — so the chain reaches the transport layer.
    Cluster(ClusterError),
}

impl CoreError {
    /// A service-layer failure with no underlying cause.
    pub fn service(kind: ServiceFailure) -> Self {
        CoreError::Service(ServiceError::new(kind))
    }

    /// A recovery failure with no underlying cause.
    pub fn recovery(kind: RecoveryFailure) -> Self {
        CoreError::Recovery(RecoveryError::new(kind))
    }

    /// A cluster-tier failure with no underlying cause.
    pub fn cluster(kind: ClusterFailure) -> Self {
        CoreError::Cluster(ClusterError::new(kind))
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::OutOfRange(a) => write!(f, "block address {a} out of range"),
            CoreError::Disabled(a) => write!(f, "block {a} is disabled"),
            CoreError::Uncorrectable => write!(f, "uncorrectable error"),
            CoreError::MultiChipFailure => write!(f, "multiple chip failures in one rank"),
            CoreError::Unsupported(kind) => {
                write!(f, "no layer in the stack handles `{kind}` accesses")
            }
            CoreError::LinkFailed => write!(f, "write link exhausted its retry budget"),
            CoreError::InvalidRber => write!(f, "injection rate outside [0, 1)"),
            CoreError::Service(e) => write!(f, "{e}"),
            CoreError::Recovery(e) => write!(f, "{e}"),
            CoreError::Cluster(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Service(e) => Some(e),
            CoreError::Recovery(e) => Some(e),
            CoreError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

/// What a [`Failure`] classifies: a small `Copy` verdict whose
/// [`fmt::Display`] completes the sentence [`FailureKind::CONTEXT`]
/// starts.
pub trait FailureKind: fmt::Debug + fmt::Display + Copy + Eq {
    /// The stable Display prefix naming the layer that failed.
    const CONTEXT: &'static str;
}

/// A layered failure: the verdict `kind` plus, when one exists, the
/// lower-level cause, so the full chain is inspectable via
/// [`std::error::Error::source`]. Displays as
/// `"<K::CONTEXT>: <kind>"`.
#[derive(Debug, Clone)]
pub struct Failure<K> {
    kind: K,
    source: Option<Arc<dyn Error + Send + Sync + 'static>>,
}

impl<K: FailureKind> Failure<K> {
    /// A failure with no underlying cause.
    pub fn new(kind: K) -> Self {
        Failure { kind, source: None }
    }

    /// A failure wrapping its lower-level cause.
    pub fn with_source(kind: K, source: impl Error + Send + Sync + 'static) -> Self {
        Failure {
            kind,
            source: Some(Arc::new(source)),
        }
    }

    /// What went wrong.
    pub fn kind(&self) -> K {
        self.kind
    }
}

// Equality ignores the attached cause: two queue-closed errors (or CRC
// mismatches, or exhausted-replica verdicts) are the same failure for
// retry/assertion purposes regardless of provenance.
impl<K: FailureKind> PartialEq for Failure<K> {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl<K: FailureKind> Eq for Failure<K> {}

impl<K: FailureKind> fmt::Display for Failure<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", K::CONTEXT, self.kind)
    }
}

impl<K: FailureKind> Error for Failure<K> {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

/// A service-layer failure: the request was dropped before any device
/// saw it. The source, when present, is the transport-level cause.
pub type ServiceError = Failure<ServiceFailure>;

/// A crash-recovery failure: the durable image cannot be reconstructed
/// into a decodable state. The source, when present, is the media-level
/// cause.
pub type RecoveryError = Failure<RecoveryFailure>;

/// A replicated-tier failure: the cluster exhausted its placement or
/// quorum options. The source, when present, is the per-node cause —
/// itself usually a [`CoreError::Service`] whose chain continues into
/// the transport, so the path from cluster verdict to shard-pool fault
/// is inspectable.
pub type ClusterError = Failure<ClusterFailure>;

/// How a service-layer request was lost (see [`CoreError::Service`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFailure {
    /// The shard's request queue is closed (service shut down).
    QueueClosed,
    /// A shard worker terminated abnormally (panicked or died).
    WorkerLost,
    /// The shard's bounded submission queue is full right now; the
    /// request was not enqueued and can be retried after draining
    /// completions (streaming admission control, never fatal).
    Backpressure,
}

impl FailureKind for ServiceFailure {
    const CONTEXT: &'static str = "memory service unavailable";
}

impl fmt::Display for ServiceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceFailure::QueueClosed => write!(f, "shard request queue is closed"),
            ServiceFailure::WorkerLost => write!(f, "shard worker terminated abnormally"),
            ServiceFailure::Backpressure => write!(f, "shard submission queue is full"),
        }
    }
}

/// How crash recovery failed (see [`CoreError::Recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFailure {
    /// An intent-log record claims content no seal could cover.
    UnsealedRecord,
    /// Durable metadata failed its CRC check.
    CrcMismatch,
    /// A sealed log entry targets a block outside the durable image —
    /// the torn state cannot be redone.
    TornBlock,
}

impl FailureKind for RecoveryFailure {
    const CONTEXT: &'static str = "recovery failed";
}

impl fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryFailure::UnsealedRecord => write!(f, "unsealed intent-log record"),
            RecoveryFailure::CrcMismatch => write!(f, "metadata CRC mismatch"),
            RecoveryFailure::TornBlock => write!(f, "unrecoverable torn block"),
        }
    }
}

/// How a replicated-tier request failed (see [`CoreError::Cluster`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFailure {
    /// The addressed node is administratively down.
    NodeDown(usize),
    /// Too few replicas acknowledged a write.
    QuorumLost {
        /// Acknowledgements the quorum required.
        needed: usize,
        /// Acknowledgements actually collected.
        got: usize,
    },
    /// Every replica placement failed to serve the block (down,
    /// stale, or erroring).
    ReplicasExhausted,
}

impl FailureKind for ClusterFailure {
    const CONTEXT: &'static str = "cluster request failed";
}

impl fmt::Display for ClusterFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterFailure::NodeDown(n) => write!(f, "cluster node {n} is down"),
            ClusterFailure::QuorumLost { needed, got } => {
                write!(f, "quorum not reached ({got} of {needed} replicas)")
            }
            ClusterFailure::ReplicasExhausted => {
                write!(f, "every replica failed to serve the block")
            }
        }
    }
}
