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

A visit is cheap on the host.  At insert a node records its predicate
as one flat tuple of ``(attribute, test, value)`` triples, read off the
constraints' derived ``test`` slot; its record's base address (a region
is built only to free it); and the LLC line and EPC page keys of the
record's hot bytes (:meth:`~repro.sgx.memory.SimulatedMemory.span_keys`).
``match`` evaluates the triples inline, appends each visited node's
keys in visit order and charges them through
:meth:`~repro.sgx.memory.SimulatedMemory.scan_keys`.
``Subscription.matches`` and ``SimulatedMemory.scan`` over the records
stay the definitions the walk must agree with
(``tests/scbr/test_containment_twin.py``).
"""

from repro.errors import ConfigurationError
from repro.sgx.memory import _RUN, MemoryRegion

# Bytes of a subscription record the matcher actually reads per visit
# (constraint summary); the rest of the record (strings, bookkeeping)
# determines the database footprint, not the per-visit traffic.
HOT_BYTES = 64
# Cycles to evaluate one subscription's predicates against an event.
EVAL_CYCLES = 150
# Default resident footprint of a subscription record.
DEFAULT_RECORD_BYTES = 512


class _Node:
    """A subscription, its place in the forest (a leaf's ``children``
    is the shared ``()``, a list from its first child on), its
    predicate flattened to ``attribute, test, value, ...``, and (with a
    memory) its record: the base address and the hot bytes' line and
    page keys, each a key or a tuple of keys (``()`` without a
    memory)."""

    __slots__ = ("subscription", "parent", "children", "predicate", "base",
                 "lines", "pages")

    def __init__(self, subscription, base):
        self.subscription = subscription
        self.parent = None
        self.children = ()
        self.predicate = tuple(
            part for attribute, constraint in subscription.constraints.items()
            for part in (attribute, constraint.test, constraint.value)
        )
        self.base = base
        self.lines = self.pages = ()


class ContainmentIndex:
    """Forest of subscriptions ordered by covering."""

    def __init__(self, memory=None, record_bytes=DEFAULT_RECORD_BYTES,
                 hot_bytes=HOT_BYTES, eval_cycles=EVAL_CYCLES):
        if record_bytes < hot_bytes:
            raise ConfigurationError("record_bytes must cover hot_bytes")
        self.memory = memory
        self.record_bytes = record_bytes
        self.hot_bytes = hot_bytes
        self.eval_cycles = eval_cycles
        self._roots = []
        self._nodes = {}
        # The page key of the record made last: consecutive records share
        # a page (8 to a page by default) and so share its key object.
        self._last_pages = None
        self.visits_last_match = 0

    def __contains__(self, subscription_id):
        return subscription_id in self._nodes

    def __len__(self):
        return len(self._nodes)

    @property
    def database_bytes(self):
        """Total resident footprint of the subscription database."""
        return len(self._nodes) * self.record_bytes

    def _node(self, subscription):
        """A node for ``subscription``, with its record if there is a
        memory."""
        memory = self.memory
        if memory is None:
            return _Node(subscription, None)
        node = _Node(subscription, memory.reserve(self.record_bytes))
        node.lines, pages = memory.span_keys(node.base, self.hot_bytes)
        if pages == self._last_pages:
            pages = self._last_pages
        node.pages = self._last_pages = pages
        return node

    def _free(self, node):
        """Release ``node``'s record: it stops inflating paging pressure."""
        if self.memory is not None:
            self.memory.free(MemoryRegion(node.base, self.record_bytes))

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
        node = self._node(subscription)
        siblings = self._roots
        descending = True
        while descending:
            descending = False
            for candidate in siblings:
                if candidate.subscription.covers(subscription):
                    siblings = candidate.children
                    node.parent = candidate
                    descending = True
                    break
        covered = [c for c in siblings if subscription.covers(c.subscription)]
        if covered:
            for child in covered:
                siblings.remove(child)
                child.parent = node
            node.children = covered
        if siblings.__class__ is list:
            siblings.append(node)
        else:
            node.parent.children = [node]
        self._nodes[subscription.subscription_id] = node
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
        parent = node.parent
        siblings = self._roots if parent is None else parent.children
        siblings.remove(node)
        for child in node.children:
            siblings.append(child)
            child.parent = parent
        node.children = ()
        node.parent = None
        self._free(node)
        return node.subscription

    def match(self, publication):
        """IDs of all subscriptions matching ``publication``.

        Visits a node only if all its ancestors matched; counts visits
        in :attr:`visits_last_match` for the comparison-reduction
        ablation.  Each visit is a hot read plus a predicate evaluation:
        the walk collects the visited nodes' keys in order and charges
        them with ``scan_keys`` when it ends (or every ``_RUN`` line
        keys): evaluating a predicate touches neither memory nor clock,
        so only the visit order counts.  The inner loop is
        :meth:`Subscription.matches` over the node's flat predicate.
        """
        get = publication.attributes.get
        matched = set()
        hit = matched.add
        lines = []
        pages = []
        add_line = lines.append
        add_page = pages.append
        stack = list(self._roots)
        pop = stack.pop
        push = stack.extend
        visits = charged = 0
        while stack:
            node = pop()
            visits += 1
            keys = node.lines
            if keys.__class__ is int:
                add_line(keys)
            else:
                lines += keys
            keys = node.pages
            if keys.__class__ is int:
                add_page(keys)
            else:
                pages += keys
            predicate = node.predicate
            at = 0
            end = len(predicate)
            while at < end:
                value = get(predicate[at])
                if value is None or not predicate[at + 1](
                    value, predicate[at + 2]
                ):
                    break
                at += 3
            else:
                hit(node.subscription.subscription_id)
                push(node.children)
            if len(lines) >= _RUN:
                self.memory.scan_keys(
                    lines, pages, visits - charged, self.eval_cycles
                )
                charged = visits
                del lines[:], pages[:]
        if self.memory is not None:
            self.memory.scan_keys(
                lines, pages, visits - charged, self.eval_cycles
            )
        self.visits_last_match = visits
        return matched

    def subscriptions(self):
        """All stored subscriptions (pre-order)."""
        result = []
        stack = list(self._roots)
        while stack:
            node = stack.pop()
            result.append(node.subscription)
            stack.extend(node.children)
        return result

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
                self._free(node)
                node.children = ()
                node.parent = None
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
