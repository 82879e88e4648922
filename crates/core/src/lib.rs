//! # AIDE — Automatic Interactive Data Exploration
//!
//! The paper's primary contribution (Dimitriadou, Papaemmanouil, Diao,
//! SIGMOD 2014): an explore-by-example framework that steers a user
//! through a d-dimensional data space by iteratively (1) extracting
//! strategically chosen sample objects, (2) collecting relevant/irrelevant
//! feedback, (3) training a decision-tree model of the user's interest and
//! (4) translating the model into a data-extraction query.
//!
//! The three exploration phases live in [`discovery`], [`misclassified`]
//! and [`boundary`]; [`session::ExplorationSession`] orchestrates them.
//! [`baseline`] provides the Random / Random-Grid comparators,
//! [`target`] the workload generator and simulated user,
//! [`user_study`] the §6.5 reproduction, and [`serve`] the multi-session
//! exploration server (`aide-serve/1` protocol, see `PROTOCOL.md`).

#![deny(missing_docs)]

pub mod baseline;
pub mod boundary;
pub mod builder;
pub mod config;
pub mod discovery;
pub mod eval;
pub mod labeled;
pub mod misclassified;
pub mod model_state;
pub mod nonlinear;
pub mod oracle;
pub mod serve;
pub mod session;
pub mod target;
pub mod user_study;
pub mod viz;

pub use builder::Explorer;
pub use config::{DiscoveryStrategy, Hints, PhaseToggles, SessionConfig, StopCondition};
pub use eval::{evaluate_model_indexed, evaluate_model_with};
pub use labeled::LabeledSet;
pub use model_state::{DiscoveryState, MisclassState};
pub use nonlinear::{Ellipsoid, NonLinearInterest, NonLinearOracle};
pub use oracle::{CallbackOracle, NoisyOracle, RelevanceOracle};
pub use serve::{serve_listener, ServeConfig, SessionHost};
pub use session::{ExplorationSession, IterationReport, SessionResult};
pub use target::{SimulatedUser, SizeClass, TargetQuery};
