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

/// The artefacts `exp_all` prints, in its order, each the report its
/// own `exp_<id>` binary prints at `ctx`'s scale (`quick` when that is
/// [`Scale::Quick`]). The scaling sweep is printed apart, after the
/// campaign's probing budget.
pub fn artefacts(ctx: &PaperContext, quick: bool) -> Vec<Report> {
    vec![
        table1::run(),
        table2::run(),
        fig4::run(),
        table6::run(),
        table3::run(quick),
        fault_sweep::run(quick),
        fig1::run(ctx),
        table4::run(ctx),
        fig5::run(ctx),
        fig6::run(ctx),
        fig7::run(ctx),
        fig8::run(ctx),
        fig9::run(ctx),
        table5::run(ctx),
        fig10::run(ctx),
        fig11::run(ctx),
    ]
}
