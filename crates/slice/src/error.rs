//! Typed errors for the slicing layer.

use crate::io::ParseForestError;
use preexec_func::ExecError;
use preexec_isa::Pc;
use std::error::Error;
use std::fmt;

/// A fault raised by the slicing layer: bad construction parameters,
/// misuse of an empty window, a corrupt serialized forest, or slice
/// statistics degenerate enough to poison downstream scoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceError {
    /// A [`SliceWindow`](crate::SliceWindow) was requested with scope 0.
    ZeroScope,
    /// A [`SliceForestBuilder`](crate::SliceForestBuilder) was requested
    /// with a zero maximum slice length.
    ZeroMaxSliceLen,
    /// A slice was requested from an empty window.
    EmptyWindow,
    /// A serialized slice forest failed to parse.
    Parse(ParseForestError),
    /// A candidate p-thread's aggregate advantage evaluated to NaN or
    /// ±∞ — the slice-tree statistics feeding the selection model were
    /// degenerate. Carries the trigger's static PC and its node id
    /// within the slice tree (the value itself is omitted so the error
    /// stays `Eq`-comparable).
    NonFiniteScore {
        /// Static PC of the poisoned candidate's trigger.
        pc: Pc,
        /// Node id of the trigger within its slice tree.
        node: usize,
    },
    /// An on-demand slice re-execution faulted. Possible only if the
    /// recording run itself would have faulted — the replayer executes
    /// the identical instruction stream.
    Replay(ExecError),
    /// A [`DepPositions`](crate::DepPositions) was built from more
    /// distinct positions than it holds. Carries the number of positions
    /// given (duplicates included).
    TooManyDepPositions {
        /// Length of the rejected position list.
        given: usize,
    },
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::ZeroScope => write!(f, "slicing scope must be positive"),
            SliceError::ZeroMaxSliceLen => write!(f, "max slice length must be positive"),
            SliceError::EmptyWindow => write!(f, "slice of empty window"),
            SliceError::Parse(e) => e.fmt(f),
            SliceError::NonFiniteScore { pc, node } => write!(
                f,
                "non-finite advantage for the candidate triggered at pc {pc} (slice-tree node {node})"
            ),
            SliceError::Replay(e) => write!(f, "slice re-execution faulted: {e}"),
            SliceError::TooManyDepPositions { given } => write!(
                f,
                "{given} dependence positions given; a slice entry holds at most {} distinct",
                crate::DepPositions::CAPACITY
            ),
        }
    }
}

impl Error for SliceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SliceError::Parse(e) => Some(e),
            SliceError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for SliceError {
    fn from(e: ExecError) -> SliceError {
        SliceError::Replay(e)
    }
}

impl From<ParseForestError> for SliceError {
    fn from(e: ParseForestError) -> SliceError {
        SliceError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_fault() {
        assert!(SliceError::ZeroScope.to_string().contains("positive"));
        assert!(SliceError::ZeroMaxSliceLen.to_string().contains("positive"));
        assert!(SliceError::EmptyWindow.to_string().contains("empty"));
        let p = ParseForestError { line: 7, message: "boom".into() };
        assert!(SliceError::from(p).to_string().contains("line 7"));
        let s = SliceError::NonFiniteScore { pc: 42, node: 3 }.to_string();
        assert!(s.contains("non-finite") && s.contains("42") && s.contains("3"));
        let r = SliceError::Replay(ExecError::CpuHalted).to_string();
        assert!(r.contains("re-execution") && r.contains("halted"));
        let d = SliceError::TooManyDepPositions { given: 4 }.to_string();
        assert!(d.contains("4 dependence positions") && d.contains("at most 3"));
    }
}
