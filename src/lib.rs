//! Shared helpers for integration tests and examples of the MEANet reproduction.

#![forbid(unsafe_code)]
