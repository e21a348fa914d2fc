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
    use vqpy::core::backend::graph::{Edge, EdgeKind, FrameGraph, NodeId, VObjNode};
    use vqpy::core::backend::ops::{ExecCtx, FrameSlot, JoinOp, Operator};
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

    fn random_node(rng: &mut StdRng, alias: &str) -> VObjNode {
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
        for prop in ["color", "speed", "score", "track_id"] {
            if rng.gen_range(0..3) == 0 {
                node.props.insert(prop.to_owned(), random_value(rng));
            }
        }
        node.alive = rng.gen_range(0..4) != 0;
        node
    }

    /// One to three nodes of each of `a` and `b` (some dead), and a `rel`
    /// edge on roughly half of the `a → b` pairs, each with some of its
    /// properties.
    fn random_graph(rng: &mut StdRng) -> FrameGraph {
        let mut graph = FrameGraph::new();
        for alias in ["a", "b"] {
            for _ in 0..rng.gen_range(1..4) {
                graph.add_node(random_node(rng, alias));
            }
        }
        for from in 0..graph.nodes.len() {
            for to in 0..graph.nodes.len() {
                let a_to_b = graph.nodes[from].alias == "a" && graph.nodes[to].alias == "b";
                if !a_to_b || rng.gen() {
                    continue;
                }
                let mut props = BTreeMap::new();
                for prop in ["distance", "kind"] {
                    if rng.gen_range(0..4) != 0 {
                        props.insert(prop.to_owned(), random_value(rng));
                    }
                }
                graph.add_edge(Edge {
                    kind: EdgeKind::Spatial,
                    relation: "rel".into(),
                    from,
                    to,
                    props,
                });
            }
        }
        graph
    }

    /// The evaluation map the engine used to clone per candidate: computed
    /// properties, then every built-in not shadowed by one.
    fn evaluation_map(node: &VObjNode) -> BTreeMap<String, Value> {
        let mut m = node.props.clone();
        for b in [
            BuiltinProp::Bbox,
            BuiltinProp::Score,
            BuiltinProp::ClassLabel,
            BuiltinProp::TrackId,
            BuiltinProp::Center,
        ] {
            m.entry(b.name().to_owned())
                .or_insert_with(|| node.builtin(b));
        }
        m
    }

    /// The environment of one `(a, b)` binding, built the old way: each
    /// alias's full property map, `rel` present only with its edge.
    fn binding_env(graph: &FrameGraph, a: NodeId, b: NodeId) -> PredEnv {
        let mut env = PredEnv::default();
        env.objects
            .insert("a".into(), evaluation_map(&graph.nodes[a]));
        env.objects
            .insert("b".into(), evaluation_map(&graph.nodes[b]));
        if let Some(edge) = graph.edge_between("rel", a, b) {
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

        /// The `(a, b)` combos the join operator finds for `pred`.
        fn join(&self, graph: &FrameGraph, pred: &Pred) -> Vec<Vec<NodeId>> {
            let mut slot = FrameSlot::new(self.video.frame(0));
            slot.graph = graph.clone();
            let mut ctx = ExecCtx {
                zoo: &self.zoo,
                clock: &self.clock,
                fps: 15,
                reuse: None,
                dispatch: vqpy::core::backend::dispatch::direct(),
                tracer: &vqpy::core::Tracer::disabled(),
            };
            JoinOp::new(
                0,
                "P",
                vec!["a".into(), "b".into()],
                vec![self.rel.clone()],
                pred.clone(),
                false,
            )
            .process(&mut slot, &mut ctx)
            .unwrap();
            slot.matches[0].iter().map(|c| c.nodes.clone()).collect()
        }
    }

    #[test]
    fn join_and_node_scopes_agree_with_a_pred_env_built_the_old_way() {
        let harness = Harness::new();
        let (mut matched, mut unmatched) = (0usize, 0usize);
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(9000 + seed);
            let graph = random_graph(&mut rng);
            let pred = random_pred(&mut rng, 4);

            // The join: same combos, same (a-major) order.
            let mut expected = Vec::new();
            for a in graph.alive_ids("a") {
                for b in graph.alive_ids("b") {
                    if pred.eval(&binding_env(&graph, a, b)) {
                        expected.push(vec![a, b]);
                        matched += 1;
                    } else {
                        unmatched += 1;
                    }
                }
            }
            assert_eq!(harness.join(&graph, &pred), expected, "seed {seed}: {pred}");

            // A node alone (object filters): its own alias only.
            for node in &graph.nodes {
                let mut env = PredEnv::default();
                env.objects
                    .insert(node.alias.as_str().to_owned(), evaluation_map(node));
                assert_eq!(pred.eval(node), pred.eval(&env), "seed {seed}: {pred}");
            }
        }
        assert!(
            matched > 50 && unmatched > 50,
            "a generator that always (or never) matches proves nothing: {matched}/{unmatched}"
        );
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
                    assert!(
                        harness.join(&graph, &absent).is_empty(),
                        "seed {seed}: {absent}"
                    );
                    assert!(graph.nodes.iter().all(|n| !absent.eval(n)), "seed {seed}");
                }
            }
        }
    }
}
