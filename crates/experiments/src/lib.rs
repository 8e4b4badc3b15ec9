//! `wormhole-experiments`: one module (and binary) per paper artefact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod context;
pub mod fault_sweep;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod roles;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod util;

pub use context::{
    campaign_config, campaign_config_for, campaign_over, faults_from_env, internet_config_for,
    internet_for, jobs_from_env, resolve_worker_substrate, PaperContext, Scale,
};
pub use util::Report;
