//! Error type for the partitioned symbolic analysis.

use awesym_awe::AweError;
use awesym_mna::MnaError;
use std::fmt;

/// Errors from assembling or evaluating a partitioned symbolic model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// Underlying MNA/AWE failure.
    Awe(AweError),
    /// A symbol binds an element of the wrong kind for its role.
    RoleMismatch {
        /// Symbol name.
        symbol: String,
        /// Name of the offending element.
        element: String,
    },
    /// A symbol binds no elements, or an element is bound twice.
    BadBinding {
        /// Description of the problem.
        what: String,
    },
    /// The internal (numeric) partition is singular — an internal node has
    /// no DC path to ground that avoids the symbolic elements' ports.
    SingularNumericPartition,
    /// The global symbolic matrix has an identically zero determinant.
    SingularSymbolicSystem,
    /// The symbolic problem is too large (ports × symbols beyond the
    /// division-free solver's practical range).
    TooManyPorts {
        /// Number of ports required.
        ports: usize,
        /// Supported maximum.
        max: usize,
    },
    /// The approximation order is outside `1..=max`.
    OrderOutOfRange {
        /// The order asked for.
        order: usize,
        /// Supported maximum ([`crate::MAX_ORDER`]).
        max: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Awe(e) => write!(f, "awe failure: {e}"),
            PartitionError::RoleMismatch { symbol, element } => {
                write!(
                    f,
                    "symbol {symbol} cannot bind element {element} (wrong kind)"
                )
            }
            PartitionError::BadBinding { what } => write!(f, "bad symbol binding: {what}"),
            PartitionError::SingularNumericPartition => {
                write!(f, "numeric partition is singular")
            }
            PartitionError::SingularSymbolicSystem => {
                write!(f, "global symbolic matrix is singular")
            }
            PartitionError::TooManyPorts { ports, max } => {
                write!(
                    f,
                    "symbolic system needs {ports} ports, supported max is {max}"
                )
            }
            PartitionError::OrderOutOfRange { order, max } => {
                write!(f, "order {order} is outside the supported range 1..={max}")
            }
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Awe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AweError> for PartitionError {
    fn from(e: AweError) -> Self {
        PartitionError::Awe(e)
    }
}

impl From<MnaError> for PartitionError {
    fn from(e: MnaError) -> Self {
        PartitionError::Awe(AweError::Mna(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = PartitionError::TooManyPorts { ports: 20, max: 12 };
        assert!(e.to_string().contains("20"));
        assert!(PartitionError::SingularNumericPartition
            .to_string()
            .contains("singular"));
        let r = PartitionError::RoleMismatch {
            symbol: "g".into(),
            element: "C1".into(),
        };
        assert!(r.to_string().contains("C1"));
    }
}
