//! Error types for the core crate.
//!
//! All fallible constructors and operations return structured errors that
//! implement [`std::error::Error`]; library code never panics on bad input.

use std::fmt;

/// Error constructing or manipulating an interval.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalError {
    /// The lower bound is greater than the upper bound.
    Inverted {
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// One of the bounds (or an input value) was NaN.
    NotANumber,
    /// A negative width was supplied where a nonnegative one is required.
    NegativeWidth(f64),
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Inverted { lo, hi } => {
                write!(f, "inverted interval bounds: lo={lo} > hi={hi}")
            }
            IntervalError::NotANumber => write!(f, "interval bound or value is NaN"),
            IntervalError::NegativeWidth(w) => write!(f, "negative interval width: {w}"),
        }
    }
}

impl std::error::Error for IntervalError {}

/// Error validating algorithm or model parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// A refresh cost was not strictly positive and finite.
    NonPositiveCost {
        /// Name of the offending cost ("C_vr" or "C_qr").
        which: &'static str,
        /// The value supplied.
        value: f64,
    },
    /// The adaptivity parameter α was negative or non-finite.
    InvalidAlpha(f64),
    /// The cost factor θ was not strictly positive and finite.
    InvalidTheta(f64),
    /// Threshold ordering violated: requires `0 <= γ0 <= γ1`.
    InvalidThresholds {
        /// Lower threshold γ0.
        gamma0: f64,
        /// Upper threshold γ1.
        gamma1: f64,
    },
    /// An initial or fixed interval width was negative or NaN.
    InvalidWidth(f64),
    /// A model constant (K1, K2, rate, …) was not strictly positive/finite.
    InvalidModelConstant {
        /// Name of the constant.
        which: &'static str,
        /// The value supplied.
        value: f64,
    },
    /// A history window size of zero was supplied (must be >= 1).
    EmptyHistoryWindow,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NonPositiveCost { which, value } => {
                write!(f, "refresh cost {which} must be positive and finite, got {value}")
            }
            ParamError::InvalidAlpha(a) => {
                write!(f, "adaptivity parameter alpha must be >= 0 and finite, got {a}")
            }
            ParamError::InvalidTheta(t) => {
                write!(f, "cost factor theta must be > 0 and finite, got {t}")
            }
            ParamError::InvalidThresholds { gamma0, gamma1 } => {
                write!(f, "thresholds must satisfy 0 <= gamma0 <= gamma1, got gamma0={gamma0}, gamma1={gamma1}")
            }
            ParamError::InvalidWidth(w) => {
                write!(f, "interval width must be >= 0 (NaN rejected), got {w}")
            }
            ParamError::InvalidModelConstant { which, value } => {
                write!(f, "model constant {which} must be positive and finite, got {value}")
            }
            ParamError::EmptyHistoryWindow => {
                write!(f, "history window size r must be >= 1")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Error interacting with protocol objects (sources and caches).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A non-finite exact value was supplied to a source.
    NonFiniteValue(f64),
    /// The cache capacity must be at least one entry.
    ZeroCapacity,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NonFiniteValue(v) => {
                write!(f, "source values must be finite, got {v}")
            }
            ProtocolError::ZeroCapacity => write!(f, "cache capacity must be >= 1"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Umbrella error for the core crate.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Interval construction or arithmetic failure.
    Interval(IntervalError),
    /// Parameter validation failure.
    Param(ParamError),
    /// Protocol object misuse.
    Protocol(ProtocolError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Interval(e) => write!(f, "interval error: {e}"),
            CoreError::Param(e) => write!(f, "parameter error: {e}"),
            CoreError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Interval(e) => Some(e),
            CoreError::Param(e) => Some(e),
            CoreError::Protocol(e) => Some(e),
        }
    }
}

impl From<IntervalError> for CoreError {
    fn from(e: IntervalError) -> Self {
        CoreError::Interval(e)
    }
}

impl From<ParamError> for CoreError {
    fn from(e: ParamError) -> Self {
        CoreError::Param(e)
    }
}

impl From<ProtocolError> for CoreError {
    fn from(e: ProtocolError) -> Self {
        CoreError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages_are_informative() {
        let e = IntervalError::Inverted { lo: 3.0, hi: 1.0 };
        assert!(e.to_string().contains("lo=3"));
        let e = ParamError::InvalidThresholds { gamma0: 5.0, gamma1: 2.0 };
        assert!(e.to_string().contains("gamma0=5"));
        let e = ProtocolError::NonFiniteValue(f64::NAN);
        assert!(e.to_string().contains("finite"));
    }

    #[test]
    fn umbrella_error_preserves_source() {
        let e: CoreError = IntervalError::NotANumber.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("interval error"));
        let e: CoreError = ParamError::InvalidAlpha(-1.0).into();
        assert!(matches!(e, CoreError::Param(_)));
        let e: CoreError = ProtocolError::ZeroCapacity.into();
        assert!(matches!(e, CoreError::Protocol(_)));
    }
}
