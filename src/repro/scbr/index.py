"""The containment-poset matching index.

Subscriptions form a forest ordered by the covering relation: each node
covers all of its descendants.  Matching a publication walks from the
roots and prunes a node's entire subtree as soon as the node fails --
a publication that does not satisfy a *general* filter cannot satisfy a
*more specific* one.  This is the "data structures that exploit
containment relations between filters" design of Section V-B.

Memory accounting: when constructed with a
:class:`~repro.sgx.memory.SimulatedMemory`, each subscription gets a
contiguous record allocated at insertion time, and every visit during
matching charges a hot-field read plus predicate-evaluation cycles.
Running the identical index against an enclave memory and a native
memory is exactly the experiment behind the paper's Figure 3.
"""

from repro.errors import ConfigurationError

# Bytes of a subscription record the matcher actually reads per visit
# (constraint summary); the rest of the record (strings, bookkeeping)
# determines the database footprint, not the per-visit traffic.
HOT_BYTES = 64
# Cycles to evaluate one subscription's predicates against an event.
EVAL_CYCLES = 150
# Default resident footprint of a subscription record.
DEFAULT_RECORD_BYTES = 512


class _Node:
    __slots__ = ("subscription", "children", "region")

    def __init__(self, subscription, region):
        self.subscription = subscription
        self.children = []
        self.region = region


class ContainmentIndex:
    """Forest of subscriptions ordered by covering."""

    def __init__(self, memory=None, record_bytes=DEFAULT_RECORD_BYTES,
                 hot_bytes=HOT_BYTES, eval_cycles=EVAL_CYCLES):
        self.memory = memory
        self.record_bytes = record_bytes
        self.hot_bytes = hot_bytes
        self.eval_cycles = eval_cycles
        self._roots = []
        self._count = 0
        self._nodes = {}
        self._parents = {}
        self.visits_last_match = 0

    def __contains__(self, subscription_id):
        return subscription_id in self._nodes

    def __len__(self):
        return self._count

    @property
    def database_bytes(self):
        """Total resident footprint of the subscription database."""
        return self._count * self.record_bytes

    def _allocate(self, subscription):
        if self.memory is None:
            return None
        return self.memory.allocate(
            self.record_bytes, label="sub-%s" % subscription.subscription_id
        )

    def insert(self, subscription):
        """Add a subscription below its most specific covering node.

        Descends greedily: while some child of the current position
        covers the new subscription, move down.  Any siblings the new
        subscription covers are re-parented beneath it, preserving the
        forest invariant (every node covers its descendants).
        """
        if subscription.subscription_id in self._nodes:
            raise ConfigurationError(
                "subscription %r already indexed" % subscription.subscription_id
            )
        node = _Node(subscription, self._allocate(subscription))
        siblings = self._roots
        parent = None
        descending = True
        while descending:
            descending = False
            for candidate in siblings:
                if candidate.subscription.covers(subscription):
                    siblings = candidate.children
                    parent = candidate
                    descending = True
                    break
        covered = [c for c in siblings if subscription.covers(c.subscription)]
        for child in covered:
            siblings.remove(child)
            node.children.append(child)
            self._parents[child.subscription.subscription_id] = node
        siblings.append(node)
        self._nodes[subscription.subscription_id] = node
        self._parents[subscription.subscription_id] = parent
        self._count += 1
        return node

    def remove(self, subscription_id):
        """Unsubscribe: detach the node, re-attach its children.

        The children are covered by the removed node, which its parent
        covers transitively, so hoisting them one level preserves the
        forest invariant.
        """
        node = self._nodes.pop(subscription_id, None)
        if node is None:
            raise ConfigurationError(
                "no subscription %r in the index" % subscription_id
            )
        parent = self._parents.pop(subscription_id)
        siblings = self._roots if parent is None else parent.children
        siblings.remove(node)
        for child in node.children:
            siblings.append(child)
            self._parents[child.subscription.subscription_id] = parent
        node.children = []
        if self.memory is not None and node.region is not None:
            # Without this, an unsubscribed record stays resident in
            # the EPC forever and keeps inflating paging pressure.
            self.memory.free(node.region)
        self._count -= 1
        return node.subscription

    def match(self, publication):
        """IDs of all subscriptions matching ``publication``.

        Visits a node only if all its ancestors matched; counts visits
        in :attr:`visits_last_match` for the comparison-reduction
        ablation.  Each visit is a hot read plus a predicate evaluation,
        charged in one scan after the walk: evaluating a predicate
        touches neither memory nor clock, so only the visit order counts.
        """
        matched = []
        visited = []
        visit = visited.append
        hit = matched.append
        stack = list(self._roots)
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            visit(node.region)
            subscription = node.subscription
            if subscription.matches(publication):
                hit(subscription.subscription_id)
                push(node.children)
        if self.memory is not None:
            self.memory.scan(visited, self.hot_bytes, self.eval_cycles)
        self.visits_last_match = len(visited)
        return set(matched)

    def subscriptions(self):
        """All stored subscriptions (pre-order)."""
        result = []
        stack = list(self._roots)
        while stack:
            node = stack.pop()
            result.append(node.subscription)
            stack.extend(node.children)
        return result

    def roots(self):
        """The root subscriptions (most general filter of each chain)."""
        return [node.subscription for node in self._roots]

    def covers_any_root(self, subscription):
        """Whether some root of this forest covers ``subscription``.

        A root covering the candidate means the candidate would land
        inside an existing covering chain here -- the signal a
        covering-aware shard planner uses to keep chains together.
        """
        return any(
            node.subscription.covers(subscription) for node in self._roots
        )

    def subtree_size(self, subscription_id):
        """Number of subscriptions in the subtree rooted at ``id``."""
        node = self._nodes.get(subscription_id)
        if node is None:
            raise ConfigurationError(
                "no subscription %r in the index" % subscription_id
            )
        count = 0
        stack = [node]
        while stack:
            current = stack.pop()
            count += 1
            stack.extend(current.children)
        return count

    def extract_subtrees(self, target_bytes):
        """Detach whole root subtrees totalling >= ``target_bytes``.

        Used by shard rebalancing: evacuating complete subtrees keeps
        every covering chain intact, so re-inserting the returned
        subscriptions (pre-order: parents first) into another index
        reproduces the same forest structure.  Records are freed from
        this index's memory.  Returns the extracted subscriptions;
        extracts at most all roots, and always leaves the forest
        consistent (:meth:`check_invariants` holds afterwards).
        """
        extracted = []
        moved_bytes = 0
        # Largest subtrees first: fewest detach operations to reach the
        # target, and the donor keeps its many small independent roots.
        order = sorted(
            self._roots,
            key=lambda node: (
                -self.subtree_size(node.subscription.subscription_id),
                node.subscription.subscription_id,
            ),
        )
        for root in order:
            if moved_bytes >= target_bytes:
                break
            self._roots.remove(root)
            stack = [root]
            pre_order = []
            while stack:
                node = stack.pop()
                pre_order.append(node)
                stack.extend(reversed(node.children))
            for node in pre_order:
                subscription_id = node.subscription.subscription_id
                del self._nodes[subscription_id]
                del self._parents[subscription_id]
                if self.memory is not None and node.region is not None:
                    self.memory.free(node.region)
                node.children = []
                self._count -= 1
                moved_bytes += self.record_bytes
                extracted.append(node.subscription)
        return extracted

    def depth(self):
        """Maximum chain length (diagnostic for workload skew)."""
        best = 0
        stack = [(node, 1) for node in self._roots]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return best

    def check_invariants(self):
        """Verify every node covers all of its descendants."""
        stack = [(node, []) for node in self._roots]
        while stack:
            node, ancestors = stack.pop()
            for ancestor in ancestors:
                if not ancestor.subscription.covers(node.subscription):
                    raise ConfigurationError(
                        "index invariant violated: %r does not cover %r"
                        % (ancestor.subscription, node.subscription)
                    )
            for child in node.children:
                stack.append((child, ancestors + [node]))
        return True
