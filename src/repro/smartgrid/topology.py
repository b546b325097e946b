"""The distribution-grid topology.

A tree rooted at the substation: substation -> feeders -> transformers
-> meters.  Fault localisation and theft detection both reason over
this hierarchy (theft compares transformer-level totals against the sum
of child meters; faults are localised to the deepest element whose
entire subtree went dark).
"""

from repro.errors import ConfigurationError


class GridTopology:
    """A radial distribution network."""

    def __init__(self, substation="substation"):
        self.substation = substation
        self._kind = {substation: "substation"}
        self._parent = {substation: None}
        self._children = {substation: []}

    @classmethod
    def build(cls, feeders=2, transformers_per_feeder=3, meters_per_transformer=8):
        """A regular radial grid with deterministic names."""
        topology = cls()
        for feeder_index in range(feeders):
            feeder = "feeder-%d" % feeder_index
            topology.add_feeder(feeder)
            for transformer_index in range(transformers_per_feeder):
                transformer = "tx-%d-%d" % (feeder_index, transformer_index)
                topology.add_transformer(transformer, feeder)
                for meter_index in range(meters_per_transformer):
                    meter = "meter-%d-%d-%02d" % (
                        feeder_index, transformer_index, meter_index
                    )
                    topology.add_meter(meter, transformer)
        return topology

    def _add(self, name, parent, kind):
        if name in self._kind:
            raise ConfigurationError("duplicate grid element %r" % name)
        self._kind[name] = kind
        self._parent[name] = parent
        self._children[name] = []
        self._children[parent].append(name)

    def add_feeder(self, name):
        """Attach a feeder to the substation."""
        self._add(name, self.substation, "feeder")

    def add_transformer(self, name, feeder):
        """Attach a transformer to a feeder."""
        if self.kind_of(feeder) != "feeder":
            raise ConfigurationError("%r is not a feeder" % feeder)
        self._add(name, feeder, "transformer")

    def add_meter(self, name, transformer):
        """Attach a meter to a transformer."""
        if self.kind_of(transformer) != "transformer":
            raise ConfigurationError("%r is not a transformer" % transformer)
        self._add(name, transformer, "meter")

    def _lookup(self, mapping, name):
        try:
            return mapping[name]
        except KeyError:
            raise ConfigurationError("unknown grid element %r" % (name,)) from None

    def kind_of(self, name):
        """Element kind: substation/feeder/transformer/meter."""
        return self._lookup(self._kind, name)

    def elements(self, kind):
        """All elements of one kind, sorted."""
        return sorted(
            name for name, its_kind in self._kind.items() if its_kind == kind
        )

    @property
    def meters(self):
        return self.elements("meter")

    @property
    def transformers(self):
        return self.elements("transformer")

    @property
    def feeders(self):
        return self.elements("feeder")

    def parent_of(self, name):
        """The upstream element (``None`` for the substation)."""
        return self._lookup(self._parent, name)

    def children_of(self, name):
        """The elements directly below ``name``, sorted."""
        return sorted(self._lookup(self._children, name))

    def meters_under(self, element):
        """All meters in ``element``'s subtree."""
        meters = []
        pending = list(self._lookup(self._children, element))
        while pending:
            name = pending.pop()
            if self._kind[name] == "meter":
                meters.append(name)
            pending.extend(self._children[name])
        return sorted(meters)

    def transformer_of(self, meter):
        """The transformer feeding ``meter``."""
        if self.kind_of(meter) != "meter":
            raise ConfigurationError("%r is not a meter" % meter)
        return self.parent_of(meter)

    def path_to(self, element):
        """The chain substation -> ... -> element."""
        path = [element]
        parent = self.parent_of(element)
        while parent is not None:
            path.append(parent)
            parent = self._parent[parent]
        path.reverse()
        return path

    def deepest_common_ancestor(self, elements):
        """The lowest element whose subtree contains all ``elements``."""
        if not elements:
            raise ConfigurationError("need at least one element")
        paths = [self.path_to(element) for element in elements]
        ancestor = self.substation
        for level in zip(*paths):
            if len(set(level)) == 1:
                ancestor = level[0]
            else:
                break
        return ancestor
