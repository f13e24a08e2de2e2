//! Input validation errors shared by the algorithm entry points.

use std::fmt;

use crate::radius_search::MIN_EPS_HAT;

/// Invalid input to a clustering algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum InputError {
    /// The dataset was empty.
    EmptyInput,
    /// `k` was zero or at least the dataset size (the problem requires
    /// `0 < k < |S|`).
    InvalidK {
        /// Requested number of centers.
        k: usize,
        /// Dataset size.
        n: usize,
    },
    /// `k + z` does not leave any point to cluster.
    InvalidZ {
        /// Requested number of centers.
        k: usize,
        /// Requested number of outliers.
        z: usize,
        /// Dataset size.
        n: usize,
    },
    /// A precision parameter was outside `(0, 1]`, or a radius-search
    /// precision `ε̂` was below [`MIN_EPS_HAT`].
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// The requested parallelism was zero.
    InvalidParallelism,
    /// The requested coreset size cannot support the problem parameters
    /// (e.g. a fixed `τ` smaller than `k`).
    CoresetTooSmall {
        /// Requested coreset size.
        tau: usize,
        /// Minimum admissible size.
        minimum: usize,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::EmptyInput => write!(f, "input dataset is empty"),
            InputError::InvalidK { k, n } => {
                write!(f, "k = {k} must satisfy 0 < k < |S| = {n}")
            }
            InputError::InvalidZ { k, z, n } => {
                write!(f, "k + z = {} must be smaller than |S| = {n}", k + z)
            }
            InputError::InvalidEpsilon { value } => {
                write!(
                    f,
                    "precision parameter {value} must lie in (0, 1], and a radius-search ε̂ \
                     in [{MIN_EPS_HAT:e}, 1]"
                )
            }
            InputError::InvalidParallelism => write!(f, "parallelism must be positive"),
            InputError::CoresetTooSmall { tau, minimum } => {
                write!(f, "coreset size {tau} below the minimum {minimum}")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// Validates the common `(n, k)` preconditions.
pub(crate) fn check_k(n: usize, k: usize) -> Result<(), InputError> {
    if n == 0 {
        return Err(InputError::EmptyInput);
    }
    if k == 0 || k >= n {
        return Err(InputError::InvalidK { k, n });
    }
    Ok(())
}

/// Validates the `(n, k, z)` preconditions of the outlier variant.
pub(crate) fn check_kz(n: usize, k: usize, z: usize) -> Result<(), InputError> {
    check_k(n, k)?;
    if k + z >= n {
        return Err(InputError::InvalidZ { k, z, n });
    }
    Ok(())
}

/// Validates a precision parameter `ε ∈ (0, 1]`.
pub(crate) fn check_eps(value: f64) -> Result<(), InputError> {
    if !(value > 0.0 && value <= 1.0) {
        return Err(InputError::InvalidEpsilon { value });
    }
    Ok(())
}

/// Validates a radius-search precision `ε̂ ∈ [MIN_EPS_HAT, 1]`.
pub(crate) fn check_eps_hat(value: f64) -> Result<(), InputError> {
    if !(MIN_EPS_HAT..=1.0).contains(&value) {
        return Err(InputError::InvalidEpsilon { value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_bounds() {
        assert_eq!(check_k(0, 1), Err(InputError::EmptyInput));
        assert_eq!(check_k(5, 0), Err(InputError::InvalidK { k: 0, n: 5 }));
        assert_eq!(check_k(5, 5), Err(InputError::InvalidK { k: 5, n: 5 }));
        assert_eq!(check_k(5, 4), Ok(()));
    }

    #[test]
    fn kz_bounds() {
        assert_eq!(
            check_kz(10, 3, 7),
            Err(InputError::InvalidZ { k: 3, z: 7, n: 10 })
        );
        assert_eq!(check_kz(10, 3, 6), Ok(()));
    }

    #[test]
    fn eps_bounds() {
        assert!(check_eps(0.0).is_err());
        assert!(check_eps(1.5).is_err());
        assert!(check_eps(f64::NAN).is_err());
        assert!(check_eps(1.0).is_ok());
        assert!(check_eps(0.01).is_ok());
        assert!(check_eps_hat(1e-9).is_err());
        assert!(check_eps_hat(f64::NAN).is_err());
        assert!(check_eps_hat(MIN_EPS_HAT).is_ok());
        assert!(check_eps_hat(1.0).is_ok());
    }

    #[test]
    fn display_messages_are_informative() {
        let msg = InputError::InvalidK { k: 9, n: 9 }.to_string();
        assert!(msg.contains('9'));
        let msg = InputError::CoresetTooSmall {
            tau: 3,
            minimum: 10,
        }
        .to_string();
        assert!(msg.contains("minimum 10"));
    }
}
