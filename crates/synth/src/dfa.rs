//! Deterministic finite automata over node-set states (Figure 9).
//!
//! For a single input–output example, the automaton's states are *sets of HDT nodes*,
//! its alphabet is the set of column-extractor operators instantiated with the tags and
//! positions occurring in the tree, and there is a transition `q_s --op--> q_s'`
//! whenever applying `op` to the node set `s` yields the (non-empty) node set `s'`.
//! A state is accepting when its node set covers the target output column.  A word
//! accepted by the automaton is therefore exactly a column-extraction program that is
//! consistent with the example (Theorem 1).
//!
//! States and transitions (rules 1–4) come from the tree and the [`DfaLimits`] alone;
//! only acceptance (rule 5, `s ⊇ column(R, i)`) reads the column.  So construction is
//! split in two: a crate-private `StateGraph` explores the states once per example
//! tree, and each of the tree's columns derives its [`Dfa`] from that graph by
//! computing acceptance only, sharing the graph's transitions.
//!
//! Few letters fire on a state: in one MONDIAL example graph, 3,187 of the 1,054
//! states × 388 letters select a non-empty set.  So the build does not apply every
//! letter to every state.  It computes all of a state's successors in one pass over
//! its nodes' subtrees, read from the tree's pre-order index: a child selects itself
//! for its `Children` and `PChildren` letters, a strict descendant for its
//! `Descendants` letter.  A build then costs the alphabet, one rank lookup per node,
//! and per state the size of its nodes' subtrees plus a sort of the (letter, node)
//! pairs they yield; a state of leaves costs nothing.  The successors are interned in
//! alphabet order, the order in which applying every letter in turn finds them, so
//! state numbering and the states a `max_states` truncation keeps are those of the
//! per-letter construction (the test module keeps it as the reference).
//!
//! The automaton for several examples is the intersection (product) of the per-example
//! automata.  Because all automata share the same *symbolic* alphabet, the product is
//! taken over [`ExtractorStep`] letters.

use mitra_dsl::ast::ExtractorStep;
use mitra_dsl::Value;
use mitra_hdt::{Hdt, NodeId, TagId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Limits applied while constructing and enumerating automata.
#[derive(Debug, Clone, Copy)]
pub struct DfaLimits {
    /// Maximum number of states explored per automaton.
    pub max_states: usize,
    /// Maximum word (program) length considered during construction and enumeration.
    pub max_word_len: usize,
}

impl Default for DfaLimits {
    fn default() -> Self {
        DfaLimits {
            max_states: 4096,
            max_word_len: 6,
        }
    }
}

/// `transitions[q]` maps a letter to the successor of state `q`.
type Transitions = Vec<HashMap<ExtractorStep, usize>>;

/// The states and transitions of Figure 9 for one example tree: everything but
/// acceptance, which [`StateGraph::with_column`] adds per column.
#[derive(Debug)]
pub(crate) struct StateGraph {
    /// The canonical node set of each state; `0` is `{root}`.
    states: Vec<Vec<NodeId>>,
    /// Shared with every automaton derived from this graph.
    transitions: Arc<Transitions>,
    /// Whether exploration hit a limit.
    truncated: bool,
}

impl StateGraph {
    /// Explores the node-set states reachable from `{root}` breadth-first, up to
    /// `limits.max_word_len` letters and `limits.max_states` states.
    ///
    /// Each state's successors come from one pass over its nodes' subtrees and are
    /// interned in alphabet order, the order in which applying every letter in turn
    /// finds them (see the module docs).
    pub(crate) fn build(tree: &Hdt, limits: DfaLimits) -> StateGraph {
        // Alphabet: every children/pchildren/descendants letter instantiated from the tree.
        let alphabet = alphabet_of(tree);
        let rank: HashMap<ExtractorStep, usize> =
            alphabet.iter().enumerate().map(|(i, l)| (*l, i)).collect();
        // The alphabet ranks of the letters that select each node: `Children` and
        // `PChildren` from its parent, `Descendants` from any ancestor.  The root is
        // selected by none, so its entry is never read.
        let letters_of: Vec<[usize; 3]> = tree
            .ids()
            .map(|id| {
                let tag = tree.tag(id);
                [
                    ExtractorStep::Children(tag),
                    ExtractorStep::PChildren(tag, tree.pos(id)),
                    ExtractorStep::Descendants(tag),
                ]
                .map(|l| rank.get(&l).copied().unwrap_or(usize::MAX))
            })
            .collect();
        let preorder = tree.preorder();

        let mut states: Vec<Vec<NodeId>> = Vec::new();
        let mut index: HashMap<Vec<NodeId>, usize> = HashMap::new();
        let mut transitions: Transitions = Vec::new();
        let mut depth_of: Vec<usize> = Vec::new();
        let mut truncated = false;

        let initial = vec![tree.root()];
        index.insert(initial.clone(), 0);
        states.push(initial);
        transitions.push(HashMap::new());
        depth_of.push(0);

        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        // (letter rank, node) for every node some letter selects from the state.
        let mut selected: Vec<(usize, NodeId)> = Vec::new();

        while let Some(q) = queue.pop_front() {
            if depth_of[q] >= limits.max_word_len {
                continue;
            }
            selected.clear();
            for &n in &states[q] {
                for &c in tree.children(n) {
                    let [children, pchildren, _] = letters_of[c.index()];
                    selected.extend([(children, c), (pchildren, c)]);
                }
                let subtree = tree.preorder_number(n) as usize + 1..tree.subtree_end(n) as usize;
                selected.extend(preorder[subtree].iter().map(|&d| {
                    let [.., descendants] = letters_of[d.index()];
                    (descendants, d)
                }));
            }
            // Sorting groups the pairs by letter in alphabet order and sorts each
            // letter's nodes; dedup drops a node reached from two of the state's
            // nodes (an ancestor and its descendant).
            selected.sort_unstable();
            selected.dedup();
            for group in selected.chunk_by(|a, b| a.0 == b.0) {
                let letter = alphabet[group[0].0];
                let next_set: Vec<NodeId> = group.iter().map(|&(_, n)| n).collect();
                let next_q = match index.get(&next_set) {
                    Some(&i) => i,
                    None => {
                        if states.len() >= limits.max_states {
                            truncated = true;
                            continue;
                        }
                        let i = states.len();
                        index.insert(next_set.clone(), i);
                        states.push(next_set);
                        transitions.push(HashMap::new());
                        depth_of.push(depth_of[q] + 1);
                        queue.push_back(i);
                        i
                    }
                };
                transitions[q].insert(letter, next_q);
            }
        }

        StateGraph {
            states,
            transitions: Arc::new(transitions),
            truncated,
        }
    }

    /// Number of states.
    pub(crate) fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The DFA of one example column over this graph (built from `tree`): a state
    /// accepts when its node set covers `column` (the `s ⊇ column(R, i)` side
    /// condition of rule (5) in Figure 9, see [`covers_column`]).
    pub(crate) fn with_column(&self, tree: &Hdt, column: &[Value]) -> Dfa {
        Dfa {
            transitions: Arc::clone(&self.transitions),
            accepting: self
                .states
                .iter()
                .map(|s| covers_column(tree, s, column))
                .collect(),
            truncated: self.truncated,
        }
    }
}

/// A DFA whose transitions are labelled with column-extractor steps.
///
/// States are dense indices; `0` is always the initial state.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// `transitions[q]` maps a letter to the successor state; shared by every
    /// automaton derived from one `StateGraph`.
    transitions: Arc<Transitions>,
    /// Whether each state is accepting.
    accepting: Vec<bool>,
    /// Whether construction hit a limit (the language may then be under-approximated).
    pub truncated: bool,
}

impl Dfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the given word is accepted.
    pub fn accepts(&self, word: &[ExtractorStep]) -> bool {
        let mut q = 0usize;
        for step in word {
            match self.transitions[q].get(step) {
                Some(&next) => q = next,
                None => return false,
            }
        }
        self.accepting[q]
    }

    /// Standard product-automaton intersection: a word is accepted iff it is accepted
    /// by both inputs.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut transitions: Transitions = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();

        index.insert((0, 0), 0);
        pairs.push((0, 0));
        transitions.push(HashMap::new());
        accepting.push(self.accepting[0] && other.accepting[0]);

        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        while let Some(q) = queue.pop_front() {
            let (a, b) = pairs[q];
            // Only letters present in both outgoing maps can fire in the product.
            let steps: Vec<ExtractorStep> = self.transitions[a]
                .keys()
                .filter(|k| other.transitions[b].contains_key(*k))
                .cloned()
                .collect();
            for step in steps {
                let na = self.transitions[a][&step];
                let nb = other.transitions[b][&step];
                let nq = match index.get(&(na, nb)) {
                    Some(&i) => i,
                    None => {
                        let i = pairs.len();
                        index.insert((na, nb), i);
                        pairs.push((na, nb));
                        transitions.push(HashMap::new());
                        accepting.push(self.accepting[na] && other.accepting[nb]);
                        queue.push_back(i);
                        i
                    }
                };
                transitions[q].insert(step, nq);
            }
        }

        Dfa {
            transitions: Arc::new(transitions),
            accepting,
            truncated: self.truncated || other.truncated,
        }
    }

    /// Returns an incremental shortest-word-first generator over the accepted
    /// language, bounded at `max_len` letters.
    ///
    /// Words come out by length, then by the letters' kind, tag name and position
    /// at each expanded state (so the order is deterministic and independent of
    /// global interning history), one at a time: the table search pulls
    /// per-column candidates on demand.  The empty word comes first when the
    /// initial state is accepting (it is the identity column extractor `s`).
    pub fn stream(&self, max_len: usize) -> WordStream<'_> {
        let mut pending = VecDeque::new();
        if self.accepting[0] {
            pending.push_back(Vec::new());
        }
        WordStream {
            dfa: self,
            frontier: vec![(0, Vec::new())],
            pending,
            depth: 0,
            max_len,
        }
    }
}

/// Incremental shortest-word-first enumeration of a DFA's bounded language.
///
/// Internally a level-by-level BFS over (state, word) pairs: each call to
/// [`WordStream::next_word`] drains the queue of accepting words discovered so
/// far, expanding one more length level only when the queue runs dry.  The
/// automaton is deterministic but the number of distinct words of length L can
/// still be exponential in L; the caller keeps `max_len` small (programs are
/// short in practice) and pulls only as many words as the table search examines.
pub struct WordStream<'a> {
    dfa: &'a Dfa,
    /// All (state, word) pairs of length `depth`; the next level is expanded from
    /// these in order, with each state's outgoing steps sorted by name key.
    frontier: Vec<(usize, Vec<ExtractorStep>)>,
    /// Accepting words of lengths ≤ `depth` not yet handed out.
    pending: VecDeque<Vec<ExtractorStep>>,
    depth: usize,
    max_len: usize,
}

impl WordStream<'_> {
    /// Returns the next accepted word in canonical order, or `None` once every
    /// word of length ≤ `max_len` has been produced.
    pub fn next_word(&mut self) -> Option<Vec<ExtractorStep>> {
        loop {
            if let Some(word) = self.pending.pop_front() {
                return Some(word);
            }
            if self.depth >= self.max_len || self.frontier.is_empty() {
                return None;
            }
            self.depth += 1;
            let mut next = Vec::new();
            for (q, word) in &self.frontier {
                let mut steps: Vec<(&ExtractorStep, &usize)> =
                    self.dfa.transitions[*q].iter().collect();
                steps.sort_by_key(|(s, _)| step_name_key(s));
                for (step, &nq) in steps {
                    let mut w = word.clone();
                    w.push(*step);
                    if self.dfa.accepting[nq] {
                        self.pending.push_back(w.clone());
                    }
                    next.push((nq, w));
                }
            }
            self.frontier = next;
        }
    }
}

/// The DFA alphabet induced by a tree: one `children`/`descendants` letter per tag and
/// one `pchildren` letter per (tag, pos) pair occurring in the tree.
///
/// Tags are interned `TagId`s, but the alphabet is ordered by tag *name* so that
/// enumeration order stays deterministic and independent of interning order.  This is
/// the only place the DFA machinery touches tag strings; everything past alphabet
/// construction compares and hashes `u32` handles.
pub fn alphabet_of(tree: &Hdt) -> Vec<ExtractorStep> {
    let mut tag_pos: HashSet<(TagId, usize)> = HashSet::new();
    for id in tree.ids() {
        if id == tree.root() {
            continue;
        }
        tag_pos.insert((tree.tag(id), tree.pos(id)));
    }
    let mut tags: Vec<TagId> = tag_pos.iter().map(|(t, _)| *t).collect();
    tags.sort_by_key(|t| t.as_str());
    tags.dedup();
    let mut letters = Vec::with_capacity(tags.len() * 2 + tag_pos.len());
    for tag in &tags {
        letters.push(ExtractorStep::Children(*tag));
        letters.push(ExtractorStep::Descendants(*tag));
    }
    let mut tag_pos: Vec<(TagId, usize)> = tag_pos.into_iter().collect();
    tag_pos.sort_by_key(|(t, p)| (t.as_str(), *p));
    for (tag, pos) in tag_pos {
        letters.push(ExtractorStep::PChildren(tag, pos));
    }
    letters
}

/// Sort key ordering extractor steps by kind, tag *name* and position — stable across
/// processes regardless of what was interned before (the derived `Ord` on
/// [`ExtractorStep`] follows interning order and is only deterministic per process).
fn step_name_key(step: &ExtractorStep) -> (u8, &'static str, usize) {
    match step {
        ExtractorStep::Children(t) => (0, t.as_str(), 0),
        ExtractorStep::Descendants(t) => (1, t.as_str(), 0),
        ExtractorStep::PChildren(t, p) => (2, t.as_str(), *p),
    }
}

/// `s ⊇ column`: every value in the column equals the data stored at some node in `s`.
pub fn covers_column(tree: &Hdt, set: &[NodeId], column: &[Value]) -> bool {
    if column.is_empty() {
        return !set.is_empty();
    }
    let available: Vec<Value> = set
        .iter()
        .map(|n| match tree.data(*n) {
            Some(d) => Value::from_data(d),
            None => Value::Null,
        })
        .collect();
    column.iter().all(|v| available.iter().any(|a| a == v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::ast::ColumnExtractor;
    use mitra_dsl::eval::eval_column;
    use mitra_hdt::generate::{chain, nested_objects, nested_objects_rich, social_network, wide};

    fn name_column() -> Vec<Value> {
        vec![Value::str("Alice"), Value::str("Bob")]
    }

    /// Applies one extractor step to a node set: the per-letter reference's
    /// transition function.
    fn apply_step(tree: &Hdt, set: &[NodeId], step: &ExtractorStep) -> Vec<NodeId> {
        match step {
            ExtractorStep::Children(tag) => set
                .iter()
                .flat_map(|n| tree.children_with_tag(*n, *tag).iter().copied())
                .collect(),
            ExtractorStep::PChildren(tag, pos) => set
                .iter()
                .filter_map(|n| tree.child(*n, *tag, *pos))
                .collect(),
            ExtractorStep::Descendants(tag) => set
                .iter()
                .flat_map(|n| tree.descendants_with_tag(*n, *tag).iter().copied())
                .collect(),
        }
    }

    /// The reference for [`StateGraph::build`]: Figure 9's rules 1–4 read
    /// literally, applying every alphabet letter to every state in turn.
    fn build_per_letter(tree: &Hdt, limits: DfaLimits) -> StateGraph {
        let alphabet = alphabet_of(tree);

        let mut states: Vec<Vec<NodeId>> = Vec::new();
        let mut index: HashMap<Vec<NodeId>, usize> = HashMap::new();
        let mut transitions: Transitions = Vec::new();
        let mut depth_of: Vec<usize> = Vec::new();
        let mut truncated = false;

        let initial = vec![tree.root()];
        index.insert(initial.clone(), 0);
        states.push(initial);
        transitions.push(HashMap::new());
        depth_of.push(0);

        let mut queue = VecDeque::new();
        queue.push_back(0usize);

        while let Some(q) = queue.pop_front() {
            if depth_of[q] >= limits.max_word_len {
                continue;
            }
            let current = states[q].clone();
            for letter in &alphabet {
                let mut next_set = apply_step(tree, &current, letter);
                if next_set.is_empty() {
                    continue;
                }
                next_set.sort_unstable();
                next_set.dedup();
                let next_q = match index.get(&next_set) {
                    Some(&i) => i,
                    None => {
                        if states.len() >= limits.max_states {
                            truncated = true;
                            continue;
                        }
                        let i = states.len();
                        index.insert(next_set.clone(), i);
                        states.push(next_set);
                        transitions.push(HashMap::new());
                        depth_of.push(depth_of[q] + 1);
                        queue.push_back(i);
                        i
                    }
                };
                transitions[q].insert(*letter, next_q);
            }
        }

        StateGraph {
            states,
            transitions: Arc::new(transitions),
            truncated,
        }
    }

    /// Asserts that the one-pass build equals the per-letter reference state for
    /// state: node sets (and so numbering), transitions and truncation.
    fn assert_matches_reference(tree: &Hdt, limits: DfaLimits) -> StateGraph {
        let graph = StateGraph::build(tree, limits);
        let reference = build_per_letter(tree, limits);
        assert_eq!(graph.states, reference.states, "{limits:?}");
        assert_eq!(graph.transitions, reference.transitions, "{limits:?}");
        assert_eq!(graph.truncated, reference.truncated, "{limits:?}");
        graph
    }

    #[test]
    fn one_pass_build_matches_the_per_letter_reference() {
        // The nested-object trees put an `object` inside an `object`, so a state
        // can hold an ancestor and its descendant, whose successors overlap.
        let trees = [
            social_network(2, 1),
            social_network(6, 3),
            chain(8),
            wide(50),
            nested_objects(),
            nested_objects_rich(),
        ];
        let d = DfaLimits::default();
        let mut limits = vec![d];
        limits.extend([3, 10, 100].map(|max_states| DfaLimits { max_states, ..d }));
        limits.extend([1, 2].map(|max_word_len| DfaLimits { max_word_len, ..d }));
        for tree in &trees {
            for &l in &limits {
                assert_matches_reference(tree, l);
            }
        }
    }

    /// The DFA of one (tree, column) example, built through its state graph.
    fn construct(tree: &Hdt, column: &[Value], limits: DfaLimits) -> Dfa {
        StateGraph::build(tree, limits).with_column(tree, column)
    }

    /// True if any state of `dfa` is accepting.
    fn has_accepting_state(dfa: &Dfa) -> bool {
        dfa.accepting.iter().any(|b| *b)
    }

    /// The first `max_words` accepted words of at most `max_len` letters.
    fn words(dfa: &Dfa, max_len: usize, max_words: usize) -> Vec<Vec<ExtractorStep>> {
        let mut stream = dfa.stream(max_len);
        std::iter::from_fn(|| stream.next_word())
            .take(max_words)
            .collect()
    }

    #[test]
    fn construct_finds_accepting_state_for_names() {
        let t = social_network(2, 1);
        let dfa = construct(&t, &name_column(), DfaLimits::default());
        assert!(has_accepting_state(&dfa));
        assert!(!dfa.truncated);
        assert!(dfa.num_states() > 1);
    }

    #[test]
    fn one_graph_serves_every_column() {
        let t = social_network(2, 1);
        let graph = StateGraph::build(&t, DfaLimits::default());
        let names = graph.with_column(&t, &name_column());
        let years = graph.with_column(&t, &[Value::int(12), Value::int(21)]);
        assert!(Arc::ptr_eq(&names.transitions, &years.transitions));
        assert_eq!(names.num_states(), graph.num_states());
        let name_word = [ExtractorStep::Descendants("name".into())];
        assert!(names.accepts(&name_word) && !years.accepts(&name_word));
        let years_word = [ExtractorStep::Descendants("years".into())];
        assert!(years.accepts(&years_word) && !names.accepts(&years_word));
    }

    #[test]
    fn accepted_words_are_consistent_extractors() {
        let t = social_network(2, 1);
        let col = name_column();
        let dfa = construct(&t, &col, DfaLimits::default());
        let words = words(&dfa, 4, 50);
        assert!(!words.is_empty());
        for w in &words {
            assert!(dfa.accepts(w));
            let pi = ColumnExtractor::from_steps(w);
            let nodes = eval_column(&t, &pi);
            assert!(covers_column(&t, &nodes, &col), "word {w:?} does not cover");
        }
    }

    #[test]
    fn expected_extractor_is_accepted() {
        let t = social_network(2, 1);
        let dfa = construct(&t, &name_column(), DfaLimits::default());
        // pchildren(children(s, Person), name, 0)  — the paper's π11
        let word = vec![
            ExtractorStep::Children("Person".into()),
            ExtractorStep::PChildren("name".into(), 0),
        ];
        assert!(dfa.accepts(&word));
        // descendants(s, name) also covers the column
        let word2 = vec![ExtractorStep::Descendants("name".into())];
        assert!(dfa.accepts(&word2));
        // children(s, name) does not (names are not direct children of the root)
        let word3 = vec![ExtractorStep::Children("name".into())];
        assert!(!dfa.accepts(&word3));
    }

    #[test]
    fn intersection_restricts_language() {
        let t1 = social_network(2, 1);
        let t2 = social_network(3, 1);
        let col1 = vec![Value::str("Alice"), Value::str("Bob")];
        let col2 = vec![Value::str("Alice"), Value::str("Bob"), Value::str("Carol")];
        let d1 = construct(&t1, &col1, DfaLimits::default());
        let d2 = construct(&t2, &col2, DfaLimits::default());
        let both = d1.intersect(&d2);
        assert!(has_accepting_state(&both));
        let words = words(&both, 4, 100);
        for w in &words {
            assert!(d1.accepts(w) && d2.accepts(w));
        }
    }

    #[test]
    fn intersection_with_impossible_column_is_empty() {
        let t = social_network(2, 1);
        let d1 = construct(&t, &name_column(), DfaLimits::default());
        let d2 = construct(&t, &[Value::str("does-not-exist")], DfaLimits::default());
        assert!(!has_accepting_state(&d2));
        let both = d1.intersect(&d2);
        assert!(words(&both, 4, 10).is_empty());
    }

    #[test]
    fn enumeration_is_shortest_first() {
        let t = social_network(2, 1);
        let dfa = construct(&t, &name_column(), DfaLimits::default());
        let words = words(&dfa, 4, 100);
        for pair in words.windows(2) {
            assert!(pair[0].len() <= pair[1].len());
        }
    }

    #[test]
    fn limits_truncate_construction() {
        let t = social_network(6, 3);
        let limits = DfaLimits {
            max_states: 3,
            max_word_len: 2,
        };
        // Truncation keeps the first states discovered, so the exact graph pins the
        // discovery order.
        let graph = assert_matches_reference(&t, limits);
        assert!(graph.truncated);
        assert_eq!(graph.num_states(), 3);
    }

    #[test]
    fn covers_column_requires_all_values() {
        let t = social_network(2, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        let names: Vec<NodeId> = persons
            .iter()
            .map(|p| t.child(*p, "name", 0).unwrap())
            .collect();
        assert!(covers_column(&t, &names, &name_column()));
        assert!(!covers_column(&t, &names[..1], &name_column()));
    }
}
