"""Every ``_LruSet`` method that changes the LRU voids the remembered run.

``touch_many`` does not walk a ``range`` equal to the one it was handed
last: repeating a run of distinct keys is a fixed point of the LRU, but
only if no key was touched or removed in between.  So every method in
``repro.sgx.memory`` that mutates ``self._entries`` -- a subscript store
or ``del``, or ``pop``, ``popitem``, ``clear`` or ``move_to_end``, on the
attribute or on a local name bound to it -- must also assign
``self._last_run``.  A mutator added later cannot forget to.
"""

import ast
import inspect

from repro.sgx import memory

MUTATORS = {"pop", "popitem", "clear", "move_to_end"}


def _is_self_attribute(node, name):
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _methods(tree):
    """``(class.method, mutates _entries, assigns _last_run)`` for every
    method of every class in ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            nodes = list(ast.walk(method))
            # Local names bound to self._entries (``entries = self._entries``).
            aliases = {
                target.id
                for node in nodes if isinstance(node, ast.Assign)
                and _is_self_attribute(node.value, "_entries")
                for target in node.targets if isinstance(target, ast.Name)
            }

            def is_entries(node):
                return _is_self_attribute(node, "_entries") or (
                    isinstance(node, ast.Name) and node.id in aliases
                )

            mutates = any(
                (isinstance(node, ast.Subscript) and is_entries(node.value)
                 and isinstance(node.ctx, (ast.Store, ast.Del)))
                or (isinstance(node, ast.Attribute) and node.attr in MUTATORS
                    and is_entries(node.value))
                for node in nodes
            )
            assigns = any(
                _is_self_attribute(node, "_last_run")
                and isinstance(node.ctx, ast.Store)
                for node in nodes
            )
            yield "%s.%s" % (cls.name, method.name), mutates, assigns


def _unguarded(tree):
    return [name for name, mutates, assigns in _methods(tree)
            if mutates and not assigns]


def test_every_mutator_voids_the_remembered_run():
    tree = ast.parse(inspect.getsource(memory))
    assert not _unguarded(tree), (
        "these methods change the LRU without voiding the run touch_many "
        "may skip; assign self._last_run = None in each:\n  "
        + "\n  ".join(_unguarded(tree))
    )
    # The scan sees the mutators that exist (a scan that finds none
    # would pass the check above vacuously).
    assert {name for name, mutates, _ in _methods(tree) if mutates} == {
        "_LruSet.touch", "_LruSet.touch_many", "_LruSet.discard",
        "_LruSet.release_owner", "_LruSet.clear",
    }


def test_the_scan_sees_each_kind_of_mutation():
    source = (
        "class Lru:\n"
        "    def store(self, k):\n"
        "        self._entries[k] = None\n"
        "    def delete(self, k):\n"
        "        del self._entries[k]\n"
        "    def pop(self, k):\n"
        "        self._entries.pop(k, None)\n"
        "    def evict(self):\n"
        "        self._entries.popitem(last=False)\n"
        "    def wipe(self):\n"
        "        self._entries.clear()\n"
        "    def alias(self, k):\n"
        "        entries = self._entries\n"
        "        entries.move_to_end(k)\n"
        "    def bound(self):\n"
        "        evict = self._entries.popitem\n"
        "        evict(False)\n"
        "    def guarded(self, k):\n"
        "        del self._entries[k]\n"
        "        self.newest = self._last_run = None\n"
        "    def reads(self, k):\n"
        "        entries = self._entries\n"
        "        return k in entries, list(self._entries), entries.get(k)\n"
        "    def other(self, k):\n"
        "        self._bases[k] = 1\n"
        "        self._bases.pop(k)\n"
    )
    assert _unguarded(ast.parse(source)) == [
        "Lru.store", "Lru.delete", "Lru.pop", "Lru.evict", "Lru.wipe",
        "Lru.alias", "Lru.bound",
    ]
