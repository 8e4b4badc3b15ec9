//! Error types for network construction and control-plane computation.

use crate::addr::Addr;
use crate::ids::{Asn, RouterId};
use std::fmt;

/// Errors raised while building a network or its control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The same address was assigned to two routers.
    DuplicateAddress {
        /// The conflicting address.
        addr: Addr,
        /// First owner.
        first: RouterId,
        /// Second owner.
        second: RouterId,
    },
    /// An AS's intra-AS graph is disconnected; IGP routing is undefined.
    DisconnectedAs {
        /// The offending AS.
        asn: Asn,
        /// A router unreachable from the AS's first member.
        unreachable: RouterId,
    },
    /// Two ASes exchange traffic but no relationship was declared.
    MissingAsRel {
        /// First AS.
        a: Asn,
        /// Second AS.
        b: Asn,
    },
    /// An RSVP-TE tunnel's explicit path is unusable.
    InvalidTeTunnel {
        /// What is wrong with it.
        reason: String,
    },
    /// A router or link references an AS the network never registered.
    UnregisteredAs {
        /// The unknown AS.
        asn: Asn,
    },
    /// A control-plane path references consecutive routers that share
    /// no link.
    MissingAdjacency {
        /// The upstream router.
        from: RouterId,
        /// The unreachable downstream router.
        to: RouterId,
    },
    /// A fault plan with out-of-range parameters.
    InvalidFaultPlan {
        /// Which field is wrong and why.
        reason: String,
    },
    /// A control-plane table would number more entries than its
    /// index type holds.
    TableOverflow {
        /// The table.
        table: &'static str,
        /// The entries it would need.
        entries: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::DuplicateAddress {
                addr,
                first,
                second,
            } => write!(f, "address {addr} assigned to both {first} and {second}"),
            NetError::DisconnectedAs { asn, unreachable } => {
                write!(f, "{asn} is disconnected: {unreachable} unreachable")
            }
            NetError::MissingAsRel { a, b } => {
                write!(f, "link between {a} and {b} without an AS relationship")
            }
            NetError::InvalidTeTunnel { reason } => {
                write!(f, "invalid RSVP-TE tunnel: {reason}")
            }
            NetError::UnregisteredAs { asn } => {
                write!(f, "{asn} is referenced but not registered")
            }
            NetError::MissingAdjacency { from, to } => {
                write!(f, "no link between {from} and {to}")
            }
            NetError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            NetError::TableOverflow { table, entries } => {
                write!(
                    f,
                    "{table} needs {entries} entries, more than its index holds"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::DuplicateAddress {
            addr: Addr::new(10, 0, 0, 1),
            first: RouterId(1),
            second: RouterId(2),
        };
        assert!(e.to_string().contains("10.0.0.1"));
        let e = NetError::DisconnectedAs {
            asn: Asn(2),
            unreachable: RouterId(5),
        };
        assert!(e.to_string().contains("AS2"));
        let e = NetError::MissingAsRel {
            a: Asn(1),
            b: Asn(2),
        };
        assert!(e.to_string().contains("AS1"));
        let e = NetError::UnregisteredAs { asn: Asn(7) };
        assert!(e.to_string().contains("AS7"));
        let e = NetError::MissingAdjacency {
            from: RouterId(1),
            to: RouterId(2),
        };
        assert!(e.to_string().contains("no link"));
        let e = NetError::TableOverflow {
            table: "FIB next-hop groups of one router",
            entries: 65_537,
        };
        assert!(e.to_string().contains("65537"));
    }
}
