//! The event vocabulary of the dynamic engine and its validation errors.

use owp_graph::NodeId;
use std::fmt;

/// One mutation of the dynamic instance.
///
/// Events address nodes and edges of the **universe** graph (see
/// [`crate::DynamicProblem`]); structural events toggle membership, the
/// last two mutate instance data (and hence eq. 9 weights). Batches are
/// validated as a whole before anything is applied — see
/// [`crate::Engine::apply_batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// An inactive peer (re)joins the overlay with empty connections.
    NodeJoin {
        /// The joining peer.
        node: NodeId,
    },
    /// An active peer leaves; all its connections dissolve.
    NodeLeave {
        /// The leaving peer.
        node: NodeId,
    },
    /// An absent universe edge becomes present (e.g. two peers discover
    /// each other). Both endpoints need not be active — the edge only
    /// becomes *alive* once they are.
    EdgeAdd {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A present universe edge disappears (e.g. a link becomes unusable).
    EdgeRemove {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Peer `node`'s connection quota becomes `quota` (clamped to its
    /// universe degree, like every quota constructor). Changes the eq. 9
    /// weights of all edges incident to `node`.
    QuotaChange {
        /// The peer whose quota changes.
        node: NodeId,
        /// The new quota (pre-clamp).
        quota: u32,
    },
    /// Peer `node` re-ranks its whole universe neighbourhood (e.g. after
    /// observing transaction history). `list` must be a permutation of the
    /// universe neighbourhood, best first. Changes the eq. 9 weights of
    /// all edges incident to `node`.
    PreferenceUpdate {
        /// The peer whose list changes.
        node: NodeId,
        /// The new preference list, most desirable neighbour first.
        list: Vec<NodeId>,
    },
}

/// Why a batch was rejected. Validation runs over the *whole* batch,
/// tracking the membership flags the batch toggles, before any state is
/// touched, so a failed [`crate::Engine::apply_batch`] leaves the engine
/// exactly as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A node id outside the universe.
    UnknownNode(NodeId),
    /// `NodeJoin` for a node that is (or, mid-batch, became) active.
    AlreadyActive(NodeId),
    /// `NodeLeave` for a node that is not active.
    NotActive(NodeId),
    /// An edge event between nodes the universe graph does not connect.
    UnknownEdge(NodeId, NodeId),
    /// `EdgeAdd` for an edge that is already present.
    EdgePresent(NodeId, NodeId),
    /// `EdgeRemove` for an edge that is not present.
    EdgeAbsent(NodeId, NodeId),
    /// `PreferenceUpdate` whose list is not a permutation of the node's
    /// universe neighbourhood.
    InvalidPreferences(NodeId),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::UnknownNode(i) => write!(f, "{i:?} is not a universe node"),
            EngineError::AlreadyActive(i) => write!(f, "{i:?} is already active"),
            EngineError::NotActive(i) => write!(f, "{i:?} is not active"),
            EngineError::UnknownEdge(u, v) => {
                write!(f, "({u:?}, {v:?}) is not a universe edge")
            }
            EngineError::EdgePresent(u, v) => write!(f, "({u:?}, {v:?}) is already present"),
            EngineError::EdgeAbsent(u, v) => write!(f, "({u:?}, {v:?}) is not present"),
            EngineError::InvalidPreferences(i) => {
                write!(f, "preference list of {i:?} is not a permutation of its universe neighbourhood")
            }
        }
    }
}

impl std::error::Error for EngineError {}
