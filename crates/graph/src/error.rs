//! Error type shared by graph construction, mutation and I/O.

use std::fmt;

/// Errors produced by graph construction, mutation and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A self-loop `(u, u)` was supplied. The paper's model works on simple
    /// graphs; self-loops would corrupt common-neighbour counts.
    SelfLoop {
        /// The offending node.
        node: u64,
    },
    /// An endpoint exceeds the declared node count.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// The number of nodes in the graph.
        num_nodes: usize,
    },
    /// An edge operation referenced an edge that does not exist.
    EdgeNotFound {
        /// Source endpoint.
        from: u32,
        /// Target endpoint.
        to: u32,
    },
    /// An edge insertion would duplicate an existing edge.
    EdgeExists {
        /// Source endpoint.
        from: u32,
        /// Target endpoint.
        to: u32,
    },
    /// A text edge list failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// PSRZ snapshot decoding failed.
    Decode(
        /// Human-readable description.
        String,
    ),
    /// A size field read from an untrusted snapshot does not fit `usize` on
    /// this platform (e.g. a 64-bit node count decoded on a 32-bit target),
    /// or a derived byte count overflowed. Returned instead of silently
    /// truncating with `as usize`.
    Overflow {
        /// Which header/derived field overflowed.
        what: &'static str,
        /// The raw value that did not fit.
        value: u64,
    },
    /// Decoded CSR parts violate a structural invariant (monotone offsets,
    /// sorted deduplicated in-range neighbour lists, no self-loops,
    /// edge/arc-count consistency, undirected symmetry). Produced by
    /// [`crate::Graph::try_from_parts`] on every deserialization path.
    Invariant(
        /// Human-readable description of the violated invariant.
        String,
    ),
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io(
        /// Stringified `std::io::Error`.
        String,
    ),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for graph with {num_nodes} nodes")
            }
            GraphError::EdgeNotFound { from, to } => write!(f, "edge ({from}, {to}) not found"),
            GraphError::EdgeExists { from, to } => write!(f, "edge ({from}, {to}) already exists"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Decode(msg) => write!(f, "binary decode error: {msg}"),
            GraphError::Overflow { what, value } => {
                write!(f, "snapshot field {what} = {value} does not fit usize on this platform")
            }
            GraphError::Invariant(msg) => write!(f, "graph invariant violated: {msg}"),
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(GraphError, &str)> = vec![
            (GraphError::SelfLoop { node: 3 }, "self-loop on node 3"),
            (
                GraphError::NodeOutOfRange { node: 9, num_nodes: 5 },
                "node 9 out of range for graph with 5 nodes",
            ),
            (GraphError::EdgeNotFound { from: 1, to: 2 }, "edge (1, 2) not found"),
            (GraphError::EdgeExists { from: 1, to: 2 }, "edge (1, 2) already exists"),
            (
                GraphError::Overflow { what: "node count", value: u64::MAX },
                "snapshot field node count = 18446744073709551615 does not fit usize on this platform",
            ),
            (
                GraphError::Invariant("offsets not monotone".into()),
                "graph invariant violated: offsets not monotone",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: GraphError = io.into();
        assert!(matches!(err, GraphError::Io(_)));
        assert!(err.to_string().contains("gone"));
    }
}
