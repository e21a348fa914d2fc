//! Cross-crate property-based tests of core invariants, driven by seeded
//! random cases (the workspace vendors a deterministic PRNG instead of
//! proptest, which is unavailable offline).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use vqpy::core::frontend::compose::{duration_filter, temporal_join};
use vqpy::core::frontend::predicate::{Pred, PredEnv};
use vqpy::core::scoring::f1_frames;
use vqpy::models::Value;
use vqpy::video::geometry::BBox;

const CASES: u64 = 200;

fn frame_set(rng: &mut StdRng, max_frame: u64, max_len: usize) -> BTreeSet<u64> {
    let len = rng.gen_range(0..max_len.max(1));
    (0..len).map(|_| rng.gen_range(0..max_frame)).collect()
}

fn sorted_frames(rng: &mut StdRng) -> Vec<u64> {
    frame_set(rng, 500, 60).into_iter().collect()
}

#[test]
fn duration_filter_output_is_subset_and_sorted() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let hits = sorted_frames(&mut rng);
        let min = rng.gen_range(1u64..20);
        let gap = rng.gen_range(0u64..5);
        let out = duration_filter(&hits, min, gap);
        let input: BTreeSet<u64> = hits.iter().copied().collect();
        assert!(out.iter().all(|f| input.contains(f)), "seed {seed}");
        assert!(out.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
    }
}

#[test]
fn duration_filter_min_one_is_identity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let hits = sorted_frames(&mut rng);
        assert_eq!(duration_filter(&hits, 1, 0), hits, "seed {seed}");
    }
}

#[test]
fn temporal_join_pairs_are_ordered_and_within_window() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let first = sorted_frames(&mut rng);
        let second = sorted_frames(&mut rng);
        let window = rng.gen_range(1u64..100);
        let pairs = temporal_join(&first, &second, window);
        for (a, b) in &pairs {
            assert!(a < b, "first must precede second (seed {seed})");
            assert!(b - a <= window, "seed {seed}");
            assert!(first.contains(a), "seed {seed}");
            assert!(second.contains(b), "seed {seed}");
        }
        // At most one pair per second-event.
        let seconds: Vec<u64> = pairs.iter().map(|(_, b)| *b).collect();
        let mut dedup = seconds.clone();
        dedup.dedup();
        assert_eq!(seconds, dedup, "seed {seed}");
    }
}

#[test]
fn f1_is_bounded_and_symmetric_on_swapped_roles() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let a = frame_set(&mut rng, 200, 40);
        let b = frame_set(&mut rng, 200, 40);
        let s = f1_frames(&a, &b);
        assert!((0.0..=1.0).contains(&s.f1), "seed {seed}");
        assert!((0.0..=1.0).contains(&s.precision), "seed {seed}");
        assert!((0.0..=1.0).contains(&s.recall), "seed {seed}");
        // Swapping roles swaps precision and recall but preserves F1
        // (the vacuous conventions for empty sets break the symmetry, so
        // only assert it when both sets are populated).
        let t = f1_frames(&b, &a);
        if !a.is_empty() && !b.is_empty() {
            assert!((s.f1 - t.f1).abs() < 1e-12, "seed {seed}");
            assert!((s.precision - t.recall).abs() < 1e-12, "seed {seed}");
        }
    }
}

#[test]
fn f1_of_identical_sets_is_one() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let mut a = frame_set(&mut rng, 200, 40);
        a.insert(rng.gen_range(0..200)); // never empty
        assert_eq!(f1_frames(&a, &a).f1, 1.0, "seed {seed}");
    }
}

#[test]
fn bbox_iou_is_symmetric_and_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let mut boxed = || {
            let x = rng.gen_range(-100.0f32..1000.0);
            let y = rng.gen_range(-100.0f32..1000.0);
            let w = rng.gen_range(1.0f32..300.0);
            let h = rng.gen_range(1.0f32..300.0);
            BBox::new(x, y, x + w, y + h)
        };
        let a = boxed();
        let b = boxed();
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        assert!((ab - ba).abs() < 1e-5, "seed {seed}");
        assert!((0.0..=1.0001).contains(&ab), "seed {seed}");
        assert!((a.iou(&a) - 1.0).abs() < 1e-5, "seed {seed}");
    }
}

#[test]
fn predicate_negation_and_de_morgan() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let score = rng.gen_range(0.0f64..1.0);
        let threshold = rng.gen_range(0.0f64..1.0);
        let color_is_red: bool = rng.gen();
        let mut env = PredEnv::default();
        let props = env.objects.entry("car".into()).or_default();
        props.insert("score".into(), Value::Float(score));
        props.insert(
            "color".into(),
            Value::from(if color_is_red { "red" } else { "blue" }),
        );
        let p = Pred::gt("car", "score", threshold);
        let q = Pred::eq("car", "color", "red");

        // Double negation.
        assert_eq!(
            p.clone().eval(&env),
            (!!p.clone()).eval(&env),
            "seed {seed}"
        );
        // De Morgan: !(p & q) == !p | !q
        let lhs = (!(p.clone() & q.clone())).eval(&env);
        let rhs = ((!p.clone()) | (!q.clone())).eval(&env);
        assert_eq!(lhs, rhs, "seed {seed}");
        // De Morgan: !(p | q) == !p & !q
        let lhs = (!(p.clone() | q.clone())).eval(&env);
        let rhs = ((!p) & (!q)).eval(&env);
        assert_eq!(lhs, rhs, "seed {seed}");
    }
}

#[test]
fn weighted_sampling_returns_members() {
    let w = vqpy::video::presets::banff().vehicle_colors;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let u = rng.gen_range(0.0f32..1.0);
        let sampled = w.sample(u);
        assert!(w.entries.iter().any(|(c, _)| *c == sampled), "seed {seed}");
    }
}

#[test]
fn value_compare_is_antisymmetric() {
    use std::cmp::Ordering;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8000 + seed);
        let a = rng.gen_range(-1000i64..1000);
        let b = rng.gen_range(-1000.0f64..1000.0);
        let va = Value::Int(a);
        let vb = Value::Float(b);
        match (va.compare(&vb), vb.compare(&va)) {
            (Some(Ordering::Less), Some(Ordering::Greater))
            | (Some(Ordering::Greater), Some(Ordering::Less))
            | (Some(Ordering::Equal), Some(Ordering::Equal)) => {}
            other => panic!("inconsistent ordering {other:?} (seed {seed})"),
        }
    }
}

// --- One predicate evaluator: the backend's in-place scopes vs `PredEnv` ---

mod in_place_scopes {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use vqpy::core::backend::graph::{Edge, FrameGraph, NodeId, NodeScope, SlotLayout, VObjNode};
    use vqpy::core::backend::ops::{ExecCtx, FrameSlot, JoinOp, Operator};
    use vqpy::core::backend::symbols::Istr;
    use vqpy::core::frontend::library::{person_schema, vehicle_schema};
    use vqpy::core::frontend::predicate::{CmpOp, PropRef};
    use vqpy::core::frontend::property::BuiltinProp;
    use vqpy::core::frontend::query::RelationDecl;
    use vqpy::core::frontend::relation::distance_relation;
    use vqpy::models::{Clock, Detection, ModelZoo};
    use vqpy::video::geometry::Point;
    use vqpy::video::{presets, Scene, SyntheticVideo, VideoSource};

    // Every pool holds names the graph never has: `ghost` is not an alias
    // of the join, `missing`/`nope` are never computed, `other` is not a
    // declared relation. `score` and `track_id` are built-ins a computed
    // property may shadow.
    const ALIASES: [&str; 3] = ["a", "b", "ghost"];
    const PROPS: [&str; 6] = [
        "score",
        "track_id",
        "class_label",
        "color",
        "speed",
        "missing",
    ];
    const RELATIONS: [&str; 2] = ["rel", "other"];
    const RELATION_PROPS: [&str; 3] = ["distance", "kind", "nope"];
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    const LEVELS: [f32; 3] = [0.25, 0.5, 0.75];
    /// The computed properties, in the order the first layout gives them
    /// columns.
    const COMPUTED: [&str; 4] = ["color", "speed", "score", "track_id"];

    /// Two plans' layouts of the same names: the second orders them the
    /// other way round and has columns nothing writes.
    fn layouts() -> [Arc<SlotLayout>; 2] {
        let reversed = ["unused", "track_id", "score", "speed", "color"];
        [
            Arc::new(SlotLayout::new(COMPUTED, ["distance", "kind"])),
            Arc::new(SlotLayout::new(reversed, ["spare", "kind", "distance"])),
        ]
    }

    fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
        pool[rng.gen_range(0..pool.len())]
    }

    /// A value from a small domain, so comparisons go both ways often.
    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..4) {
            0 => Value::Float(f64::from(pick(rng, &LEVELS))),
            1 => Value::Int(rng.gen_range(0..3)),
            2 => Value::from(pick(rng, &["red", "blue", "car"])),
            _ => Value::Bool(rng.gen()),
        }
    }

    /// What a computed slot may hold: sometimes a computed `Null`, which
    /// must hide a built-in of the same name rather than fall back to it.
    fn random_computed(rng: &mut StdRng) -> Value {
        if rng.gen_range(0..6) == 0 {
            Value::Null
        } else {
            random_value(rng)
        }
    }

    fn random_leaf(rng: &mut StdRng) -> Pred {
        if rng.gen_range(0..4) == 0 {
            Pred::relation(
                pick(rng, &RELATIONS),
                pick(rng, &RELATION_PROPS),
                pick(rng, &OPS),
                random_value(rng),
            )
        } else {
            Pred::Cmp {
                target: PropRef::new(pick(rng, &ALIASES), pick(rng, &PROPS)),
                op: pick(rng, &OPS),
                value: random_value(rng),
            }
        }
    }

    fn random_pred(rng: &mut StdRng, depth: u32) -> Pred {
        if depth == 0 || rng.gen_range(0..3) == 0 {
            return random_leaf(rng);
        }
        match rng.gen_range(0..3) {
            0 => random_pred(rng, depth - 1) & random_pred(rng, depth - 1),
            1 => random_pred(rng, depth - 1) | random_pred(rng, depth - 1),
            _ => !random_pred(rng, depth - 1),
        }
    }

    /// A node and the properties computed for it, by name.
    struct NodeCase {
        node: VObjNode,
        computed: BTreeMap<String, Value>,
    }

    /// An `a → b` edge of `rel` and its properties, by name.
    struct EdgeCase {
        from: NodeId,
        to: NodeId,
        props: BTreeMap<String, Value>,
    }

    /// A frame graph described by name, so it can be laid out under any
    /// layout and read back the old way.
    struct GraphCase {
        nodes: Vec<NodeCase>,
        edges: Vec<EdgeCase>,
    }

    impl GraphCase {
        /// The frame graph under `layout`.
        fn build(&self, layout: &Arc<SlotLayout>) -> FrameGraph {
            let rel = Istr::new("rel");
            let mut graph = FrameGraph::with_layout(Arc::clone(layout));
            for case in &self.nodes {
                let id = graph.add_node(case.node.clone());
                for (prop, value) in &case.computed {
                    let slot = layout
                        .prop(prop)
                        .expect("every layout has the computed names");
                    graph.set(id, slot, value.clone());
                }
            }
            for case in &self.edges {
                let e = graph.add_edge(Edge {
                    relation: rel,
                    from: case.from,
                    to: case.to,
                });
                for (prop, value) in &case.props {
                    let slot = layout
                        .edge_prop(prop)
                        .expect("every layout has the edge names");
                    graph.set_edge_value(e, slot, value.clone());
                }
            }
            graph
        }

        fn alive(&self, alias: &str) -> impl Iterator<Item = NodeId> + '_ {
            let alias = alias.to_owned();
            (0..self.nodes.len())
                .filter(move |&i| self.nodes[i].node.alive && self.nodes[i].node.alias == alias)
        }
    }

    fn random_node(rng: &mut StdRng, alias: &str) -> NodeCase {
        let mut node = VObjNode::from_detection(
            alias,
            &Detection {
                class_label: pick(rng, &["car", "person"]).to_owned(),
                bbox: BBox::from_center(Point::new(50.0, 50.0), 20.0, 10.0),
                score: pick(rng, &LEVELS),
                sim_entity: None,
            },
        );
        if rng.gen() {
            node.track_id = Some(rng.gen_range(0..3));
        }
        let mut computed = BTreeMap::new();
        for prop in COMPUTED {
            if rng.gen_range(0..3) == 0 {
                computed.insert(prop.to_owned(), random_computed(rng));
            }
        }
        node.alive = rng.gen_range(0..4) != 0;
        NodeCase { node, computed }
    }

    /// One to three nodes of each of `a` and `b` (some dead), and a `rel`
    /// edge on roughly half of the `a → b` pairs, each with some of its
    /// properties.
    fn random_graph(rng: &mut StdRng) -> GraphCase {
        let mut nodes = Vec::new();
        for alias in ["a", "b"] {
            for _ in 0..rng.gen_range(1..4) {
                nodes.push(random_node(rng, alias));
            }
        }
        let mut edges = Vec::new();
        for from in 0..nodes.len() {
            for to in 0..nodes.len() {
                let a_to_b = nodes[from].node.alias == "a" && nodes[to].node.alias == "b";
                if !a_to_b || rng.gen() {
                    continue;
                }
                let mut props = BTreeMap::new();
                for prop in ["distance", "kind"] {
                    if rng.gen_range(0..4) != 0 {
                        props.insert(prop.to_owned(), random_value(rng));
                    }
                }
                edges.push(EdgeCase { from, to, props });
            }
        }
        GraphCase { nodes, edges }
    }

    /// The evaluation map the engine used to clone per candidate: computed
    /// properties, then every built-in not shadowed by one.
    fn evaluation_map(case: &NodeCase) -> BTreeMap<String, Value> {
        let mut m = case.computed.clone();
        for b in [
            BuiltinProp::Bbox,
            BuiltinProp::Score,
            BuiltinProp::ClassLabel,
            BuiltinProp::TrackId,
            BuiltinProp::Center,
        ] {
            m.entry(b.name().to_owned())
                .or_insert_with(|| case.node.builtin(b));
        }
        m
    }

    /// The environment of one `(a, b)` binding, built the old way: each
    /// alias's full property map, `rel` present only with its edge.
    fn binding_env(graph: &GraphCase, a: NodeId, b: NodeId) -> PredEnv {
        let mut env = PredEnv::default();
        env.objects
            .insert("a".into(), evaluation_map(&graph.nodes[a]));
        env.objects
            .insert("b".into(), evaluation_map(&graph.nodes[b]));
        if let Some(edge) = graph.edges.iter().find(|e| e.from == a && e.to == b) {
            env.relations.insert("rel".into(), edge.props.clone());
        }
        env
    }

    struct Harness {
        zoo: Arc<ModelZoo>,
        clock: Clock,
        video: SyntheticVideo,
        rel: RelationDecl,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                zoo: ModelZoo::standard(),
                clock: Clock::new(),
                video: SyntheticVideo::new(Scene::generate(presets::jackson(), 1, 1.0)),
                rel: RelationDecl {
                    name: "rel".into(),
                    schema: distance_relation("rel", vehicle_schema(), person_schema()),
                    left_alias: "a".into(),
                    right_alias: "b".into(),
                },
            }
        }

        /// The `(a, b)` combos the join operator finds for `pred` on
        /// `graph` laid out by `layout`.
        fn join(
            &self,
            graph: &GraphCase,
            layout: &Arc<SlotLayout>,
            pred: &Pred,
        ) -> Vec<Vec<NodeId>> {
            let mut slot = FrameSlot::with_layout(self.video.frame(0), layout);
            slot.graph = graph.build(layout);
            let mut ctx = ExecCtx {
                zoo: &self.zoo,
                clock: &self.clock,
                fps: 15,
                objects: None,
                reference: None,
                reuse: false,
                dispatch: vqpy::core::backend::dispatch::direct(),
                tracer: &vqpy::core::Tracer::disabled(),
            };
            JoinOp::new(
                0,
                &["a", "b"],
                std::slice::from_ref(&self.rel),
                pred,
                false,
                layout,
            )
            .process(&mut slot, &mut ctx)
            .unwrap();
            slot.matches[0].iter().map(<[NodeId]>::to_vec).collect()
        }

        /// Whether `pred` holds for each node alone under `layout` (an
        /// object filter's scope).
        fn nodes(&self, graph: &GraphCase, layout: &Arc<SlotLayout>, pred: &Pred) -> Vec<bool> {
            let built = graph.build(layout);
            (0..built.nodes.len())
                .map(|id| {
                    let alias = built.nodes[id].alias;
                    let resolved = layout.resolve(pred, &[alias.as_str()], &[]);
                    resolved.eval(&NodeScope { graph: &built, id })
                })
                .collect()
        }
    }

    /// The join combos and per-node verdicts the old map-building
    /// evaluator gives.
    fn oracle(graph: &GraphCase, pred: &Pred) -> (Vec<Vec<NodeId>>, Vec<bool>) {
        let mut combos = Vec::new();
        for a in graph.alive("a") {
            for b in graph.alive("b") {
                if pred.eval(&binding_env(graph, a, b)) {
                    combos.push(vec![a, b]);
                }
            }
        }
        let nodes = graph.nodes.iter().map(|case| {
            let mut env = PredEnv::default();
            env.objects
                .insert(case.node.alias.as_str().to_owned(), evaluation_map(case));
            pred.eval(&env)
        });
        (combos, nodes.collect())
    }

    #[test]
    fn join_and_node_scopes_agree_with_a_pred_env_built_the_old_way() {
        let harness = Harness::new();
        let (mut matched, mut unmatched, mut null_shadows) = (0usize, 0usize, 0usize);
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(9000 + seed);
            let graph = random_graph(&mut rng);
            let pred = random_pred(&mut rng, 4);
            let (combos, verdicts) = oracle(&graph, &pred);
            let pairs = graph.alive("a").count() * graph.alive("b").count();
            matched += combos.len();
            unmatched += pairs - combos.len();
            null_shadows += graph
                .nodes
                .iter()
                .filter(|n| {
                    ["score", "track_id"]
                        .iter()
                        .any(|p| n.computed.get(*p) == Some(&Value::Null))
                })
                .count();

            // Both layouts: same combos in the same (a-major) order, and
            // the same verdict for each node alone (its own alias only).
            for layout in &layouts() {
                assert_eq!(
                    harness.join(&graph, layout, &pred),
                    combos,
                    "seed {seed}: {pred}"
                );
                assert_eq!(
                    harness.nodes(&graph, layout, &pred),
                    verdicts,
                    "seed {seed}: {pred}"
                );
            }
        }
        assert!(
            matched > 50 && unmatched > 50,
            "a generator that always (or never) matches proves nothing: {matched}/{unmatched}"
        );
        assert!(
            null_shadows > 20,
            "computed Nulls over built-ins: {null_shadows}"
        );
    }

    /// One `a` node (detector score 0.75, track 2) and one `b` node, with
    /// `computed` set on the `a` node.
    fn pair(computed: &[(&str, Value)]) -> GraphCase {
        let mut graph = GraphCase {
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        for alias in ["a", "b"] {
            let mut node = VObjNode::from_detection(
                alias,
                &Detection {
                    class_label: "car".into(),
                    bbox: BBox::from_center(Point::new(50.0, 50.0), 20.0, 10.0),
                    score: 0.75,
                    sim_entity: None,
                },
            );
            node.track_id = Some(2);
            graph.nodes.push(NodeCase {
                node,
                computed: BTreeMap::new(),
            });
        }
        for (prop, value) in computed {
            graph.nodes[0]
                .computed
                .insert((*prop).to_owned(), value.clone());
        }
        graph
    }

    /// Whether `pred` holds for the `a` node, in a join and alone, under
    /// both layouts (which must agree).
    fn holds(harness: &Harness, graph: &GraphCase, pred: &Pred) -> bool {
        let verdicts: Vec<(bool, bool)> = layouts()
            .iter()
            .map(|layout| {
                let joined = !harness.join(graph, layout, pred).is_empty();
                (joined, harness.nodes(graph, layout, pred)[0])
            })
            .collect();
        assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "{pred}: {verdicts:?}"
        );
        assert_eq!(verdicts[0].0, verdicts[0].1, "{pred}");
        verdicts[0].0
    }

    #[test]
    fn an_unset_slot_falls_back_to_its_builtin_and_a_computed_null_does_not() {
        let harness = Harness::new();
        let score = Pred::gt("a", "score", 0.5);
        let track = Pred::eq("a", "track_id", 2i64);
        // Unset: the detector's score and the tracker's id show through;
        // a name with no built-in reads `Null` and fails either way.
        let unset = pair(&[]);
        assert!(holds(&harness, &unset, &score));
        assert!(holds(&harness, &unset, &track));
        assert!(!holds(&harness, &unset, &Pred::eq("a", "color", "red")));
        assert!(!holds(&harness, &unset, &Pred::ne("a", "color", "red")));
        // Computed `Null`: the built-in is hidden, every comparison fails.
        let nulls = pair(&[("score", Value::Null), ("track_id", Value::Null)]);
        for pred in [
            &score,
            &track,
            &Pred::le("a", "score", 0.5),
            &Pred::ne("a", "track_id", 2i64),
        ] {
            assert!(!holds(&harness, &nulls, pred), "{pred}");
        }
        assert!(holds(&harness, &nulls, &!score));
    }

    #[test]
    fn a_computed_slot_shadows_the_builtin_of_its_name() {
        let harness = Harness::new();
        let shadowed = pair(&[("score", Value::Float(0.25)), ("track_id", Value::Int(7))]);
        assert!(!holds(&harness, &shadowed, &Pred::gt("a", "score", 0.5)));
        assert!(holds(&harness, &shadowed, &Pred::lt("a", "score", 0.5)));
        assert!(holds(&harness, &shadowed, &Pred::eq("a", "track_id", 7i64)));
        assert!(!holds(
            &harness,
            &shadowed,
            &Pred::eq("a", "track_id", 2i64)
        ));
        // Built-ins nothing computed still read the detection.
        assert!(holds(
            &harness,
            &shadowed,
            &Pred::eq("a", "class_label", "car")
        ));
    }

    #[test]
    fn a_comparison_on_something_absent_never_matches() {
        let harness = Harness::new();
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(9500 + seed);
            let graph = random_graph(&mut rng);
            let value = random_value(&mut rng);
            for op in OPS {
                for absent in [
                    Pred::Cmp {
                        target: PropRef::new("a", "missing"),
                        op,
                        value: value.clone(),
                    },
                    Pred::Cmp {
                        target: PropRef::new("ghost", "score"),
                        op,
                        value: value.clone(),
                    },
                    Pred::relation("other", "distance", op, value.clone()),
                    Pred::relation("rel", "nope", op, value.clone()),
                ] {
                    for layout in &layouts() {
                        assert!(
                            harness.join(&graph, layout, &absent).is_empty(),
                            "seed {seed}: {absent}"
                        );
                        let verdicts = harness.nodes(&graph, layout, &absent);
                        assert!(verdicts.iter().all(|v| !v), "seed {seed}");
                    }
                }
            }
        }
    }
}
