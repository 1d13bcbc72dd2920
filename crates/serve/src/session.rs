//! Design pool and per-client what-if sessions.
//!
//! A [`DesignEntry`] is the immutable, shareable part: the frozen
//! [`DesignCore`], the nominal boundary context, the pin-name index, and
//! (optionally) the design's macro model. Sessions hold an
//! `Arc<DesignEntry>` and layer everything mutable on top: one
//! copy-on-write [`GraphView`] overlay and the incremental propagation
//! state ([`IncrementalState`], which owns the session's boundary
//! [`Context`]) that answers queries, re-constraints and ECO edits without
//! full recomputes. Re-constraints only record their seeds; the next query
//! sweeps once for all of them, and point queries read the state in
//! place.

use crate::ServeError;
use std::collections::HashMap;
use std::sync::Arc;
use tmm_faults::eco::EcoEdit;
use tmm_macromodel::MacroModel;
use tmm_sta::constraints::{Context, PiConstraint};
use tmm_sta::graph::{ArcGraph, NodeId};
use tmm_sta::incremental::IncrementalState;
use tmm_sta::propagate::AnalysisOptions;
use tmm_sta::split::{Quad, Split};
use tmm_sta::view::{DesignCore, GraphView, TimingGraph};

use crate::protocol::QueryKind;

/// The immutable, pool-shared half of a served design.
#[derive(Debug)]
pub struct DesignEntry {
    /// Pool name (the design name).
    pub name: String,
    /// Frozen shared storage every session's overlay points at.
    pub core: Arc<DesignCore>,
    /// Nominal boundary context new sessions start from.
    pub ctx: Context,
    /// Analysis options all sessions of this design run under.
    pub options: AnalysisOptions,
    /// Live pin name → node id over the core.
    pub pins: HashMap<String, NodeId>,
    /// The design's macro model, when one was loaded.
    pub model: Option<MacroModel>,
}

impl DesignEntry {
    /// Freezes `graph` and indexes its live pins.
    #[must_use]
    pub fn new(
        graph: &ArcGraph,
        ctx: Context,
        options: AnalysisOptions,
        model: Option<MacroModel>,
    ) -> Arc<DesignEntry> {
        let core = DesignCore::freeze(graph);
        let mut pins = HashMap::with_capacity(core.node_count());
        for i in 0..core.node_count() {
            let n = NodeId(i as u32);
            if !core.node_dead(n) {
                pins.insert(core.node_name(n).to_string(), n);
            }
        }
        Arc::new(DesignEntry {
            name: graph.name().to_string(),
            core,
            ctx,
            options,
            pins,
            model,
        })
    }
}

/// The pool of designs a server answers for, loaded once at startup and
/// shared (read-only) by every worker.
#[derive(Debug, Default)]
pub struct DesignPool {
    entries: HashMap<String, Arc<DesignEntry>>,
}

impl DesignPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> DesignPool {
        DesignPool::default()
    }

    /// Adds `entry` under its design name.
    pub fn insert(&mut self, entry: Arc<DesignEntry>) {
        self.entries.insert(entry.name.clone(), entry);
    }

    /// Looks a design up by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownDesign`] when absent.
    pub fn get(&self, name: &str) -> Result<Arc<DesignEntry>, ServeError> {
        self.entries
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownDesign(name.to_string()))
    }

    /// Design names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of pooled designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no design is loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One what-if session: an overlay, a boundary context, and live
/// propagation state over a pool-shared core.
#[derive(Debug)]
pub struct Session {
    /// Session id (engine-assigned, process-unique).
    pub id: u64,
    design: Arc<DesignEntry>,
    view: GraphView,
    /// Incremental state (it owns the session's boundary context); `None`
    /// until the first command that needs timing builds it with one full
    /// propagation over the overlay.
    inc: Option<IncrementalState>,
    /// Pins created by buffer-inserting ECO edits (overlay-local names).
    extra_pins: HashMap<String, NodeId>,
    /// Full propagation passes this session has run.
    pub propagations: u64,
    /// ECO edits applied.
    pub edits: u64,
}

impl Session {
    /// Opens a pristine session on `design`.
    #[must_use]
    pub fn open(id: u64, design: Arc<DesignEntry>) -> Session {
        let view = GraphView::new(Arc::clone(&design.core));
        Session {
            id,
            design,
            view,
            inc: None,
            extra_pins: HashMap::new(),
            propagations: 0,
            edits: 0,
        }
    }

    /// The design this session runs on.
    #[must_use]
    pub fn design(&self) -> &Arc<DesignEntry> {
        &self.design
    }

    /// The session's current boundary context.
    #[must_use]
    pub fn ctx(&self) -> &Context {
        self.inc.as_ref().map_or(&self.design.ctx, IncrementalState::ctx)
    }

    /// The session's overlay (read-only; edits go through
    /// [`Session::apply_eco`]).
    #[must_use]
    pub fn view(&self) -> &GraphView {
        &self.view
    }

    fn resolve_pin(&self, pin: &str) -> Result<NodeId, ServeError> {
        if let Some(&n) = self.design.pins.get(pin) {
            return Ok(n);
        }
        if let Some(&n) = self.extra_pins.get(pin) {
            return Ok(n);
        }
        Err(ServeError::UnknownPin(pin.to_string()))
    }

    /// The incremental state and the overlay it tracks, building the state
    /// with one full propagation on first use.
    fn state(&mut self) -> Result<(&mut IncrementalState, &GraphView), ServeError> {
        let inc = match &mut self.inc {
            Some(inc) => inc,
            slot @ None => {
                self.propagations += 1;
                slot.insert(
                    IncrementalState::new(&self.view, self.design.ctx.clone(), self.design.options)
                        .map_err(ServeError::Sta)?,
                )
            }
        };
        Ok((inc, &self.view))
    }

    /// Answers one point query. The first query after re-constraints runs
    /// one cone sweep for all of them; the rest read the state in place.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownPin`] for unresolvable names; propagation
    /// errors from the initial build.
    pub fn query(&mut self, kind: QueryKind, pin: &str) -> Result<Quad, ServeError> {
        let n = self.resolve_pin(pin)?;
        let (inc, view) = self.state()?;
        Ok(match kind {
            QueryKind::At => inc.at(view, n),
            QueryKind::Rat => inc.rat(view, n),
            QueryKind::Slack => inc.slack(view, n),
            QueryKind::Slew => inc.slew(view, n),
        })
    }

    /// Re-constrains one primary input (arrival window + slew). The
    /// update is recorded and swept incrementally at the next query
    /// (bit-identical to a full recompute, per the sta contract).
    ///
    /// # Errors
    ///
    /// Out-of-range indices and propagation errors.
    pub fn set_pi(
        &mut self,
        idx: usize,
        at_early: f64,
        at_late: f64,
        slew: f64,
    ) -> Result<(), ServeError> {
        let constraint = PiConstraint { at: Split::new(at_early, at_late), slew };
        let (inc, _) = self.state()?;
        inc.set_pi(idx, constraint).map_err(ServeError::Sta)
    }

    /// Changes one primary output's external load.
    ///
    /// # Errors
    ///
    /// Out-of-range indices and propagation errors.
    pub fn set_po_load(&mut self, idx: usize, load: f64) -> Result<(), ServeError> {
        let (inc, _) = self.state()?;
        inc.set_po_load(idx, load).map_err(ServeError::Sta)
    }

    /// Changes one primary output's required arrival times.
    ///
    /// # Errors
    ///
    /// Out-of-range indices and propagation errors.
    pub fn set_po_rat(&mut self, idx: usize, early: f64, late: f64) -> Result<(), ServeError> {
        let (inc, _) = self.state()?;
        inc.set_po_rat(idx, Split::new(early, late)).map_err(ServeError::Sta)
    }

    /// Applies one ECO edit to the overlay and re-syncs the incremental
    /// state: only the edit's cone re-times (under AOCV the state is
    /// rebuilt, which counts as a propagation).
    ///
    /// # Errors
    ///
    /// Illegal edits (bad target, dead node, …) surface as
    /// [`ServeError::Sta`].
    pub fn apply_eco(&mut self, edit: &EcoEdit) -> Result<(), ServeError> {
        edit.apply(&mut self.view).map_err(ServeError::Sta)?;
        if let EcoEdit::BufferInsert { name, .. } = edit {
            // The id sequence is deterministic: extra nodes number from
            // core.node_count() in creation order.
            let id = NodeId(
                (self.view.node_count() - 1) as u32,
            );
            self.extra_pins.insert(name.clone(), id);
        }
        self.edits += 1;
        if let Some(inc) = self.inc.as_mut() {
            if inc.resync(&self.view) {
                self.propagations += 1;
            }
        }
        Ok(())
    }

    /// Evaluates the design's macro model under this session's current
    /// boundary context and returns the worst slack across the model's
    /// boundary pins.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModel`] when the design has no model; analysis
    /// errors otherwise.
    pub fn macro_eval(&mut self) -> Result<f64, ServeError> {
        let model = self
            .design
            .model
            .as_ref()
            .ok_or_else(|| ServeError::NoModel(self.design.name.clone()))?;
        let analysis =
            model.analyze(self.ctx(), self.design.options).map_err(ServeError::Sta)?;
        let graph = model.graph();
        let mut worst = f64::INFINITY;
        for &po in graph.primary_outputs() {
            let s = analysis.slack(po);
            for mode in tmm_sta::split::Mode::ALL {
                for edge in tmm_sta::split::Edge::ALL {
                    let v = s[mode][edge];
                    if v.is_finite() && v < worst {
                        worst = v;
                    }
                }
            }
        }
        Ok(worst)
    }
}
