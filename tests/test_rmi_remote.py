"""Unit tests for remote-interface metadata extraction."""

from typing import List, Sequence, Tuple

import pytest

from repro.rmi.remote import (
    RESERVED_METHOD_NAMES,
    RemoteInterface,
    RemoteObject,
    interface_names,
    lookup_interface,
    methods_of_names,
    qualified_name,
    remote_interfaces,
    remote_methods,
)

from tests.support import Container, Counter, CounterImpl, Item


class Shapes(RemoteInterface):
    def plain(self) -> int: ...

    def untyped(self): ...

    def remote(self) -> Counter: ...

    def listed(self) -> List[Counter]: ...

    def sequenced(self) -> Sequence[Counter]: ...

    def tupled(self) -> Tuple[Counter]: ...

    def strings(self) -> List[str]: ...

    def _private(self) -> int: ...


class Extended(Shapes):
    def extra(self) -> str: ...


#: Resolves to a plain value until an interface of this simple name is
#: registered (see TestMethodTableCache).
MethodTableProbeTarget = int


class ForwardProbe(RemoteInterface):
    def make(self) -> "MethodTableProbeTarget": ...


class TestClassification:
    def test_value_return(self):
        assert remote_methods(Shapes)["plain"].returns_kind == "value"

    def test_missing_annotation_is_value(self):
        assert remote_methods(Shapes)["untyped"].returns_kind == "value"

    def test_remote_return(self):
        spec = remote_methods(Shapes)["remote"]
        assert spec.returns_kind == "remote"
        assert spec.returns_interface == qualified_name(Counter)

    @pytest.mark.parametrize("method", ["listed", "sequenced", "tupled"])
    def test_sequence_of_remote_is_cursor(self, method):
        spec = remote_methods(Shapes)[method]
        assert spec.returns_kind == "cursor"
        assert spec.returns_interface == qualified_name(Counter)

    def test_sequence_of_values_is_value(self):
        assert remote_methods(Shapes)["strings"].returns_kind == "value"

    def test_private_methods_excluded(self):
        assert "_private" not in remote_methods(Shapes)

    def test_inherited_methods_included(self):
        specs = remote_methods(Extended)
        assert "plain" in specs and "extra" in specs

    def test_non_interface_rejected(self):
        with pytest.raises(TypeError):
            remote_methods(int)


class TestMethodTableCache:
    def test_table_is_cached_and_read_only(self):
        specs = remote_methods(Shapes)
        assert remote_methods(Shapes) is specs
        with pytest.raises(TypeError):
            specs["plain"] = None

    def test_registering_an_interface_invalidates_the_table(self):
        before = remote_methods(ForwardProbe)
        assert before["make"].returns_kind == "value"

        class MethodTableProbeTarget(RemoteInterface):
            def ping(self) -> int: ...

        after = remote_methods(ForwardProbe)
        assert after is not before
        assert after["make"].returns_kind == "remote"
        assert after["make"].returns_interface == qualified_name(
            MethodTableProbeTarget
        )


class TestRegistry:
    def test_interfaces_auto_registered(self):
        assert lookup_interface(qualified_name(Shapes)) is Shapes

    def test_unknown_interface(self):
        with pytest.raises(KeyError):
            lookup_interface("no.such.Interface")

    def test_methods_of_names_union(self):
        specs = methods_of_names(
            [qualified_name(Counter), qualified_name(Container)]
        )
        assert "increment" in specs and "all_items" in specs

    def test_methods_of_names_skips_unknown(self):
        specs = methods_of_names(["ghost.Iface", qualified_name(Counter)])
        assert "increment" in specs


class TestReservedNames:
    @pytest.mark.parametrize("name", sorted(RESERVED_METHOD_NAMES))
    def test_reserved_names_rejected(self, name):
        with pytest.raises(TypeError):
            type(
                f"Bad_{name}",
                (RemoteInterface,),
                {name: lambda self: None},
            )

    def test_get_is_allowed(self):
        """``get`` collides with Future.get only on futures, not proxies."""

        class HasGet(RemoteInterface):
            def get(self, key: str) -> str: ...

        assert "get" in remote_methods(HasGet)


class TestInterfaceNames:
    def test_implementation_lists_interfaces(self):
        names = interface_names(CounterImpl())
        assert qualified_name(Counter) in names

    def test_remote_interfaces_excludes_base(self):
        assert RemoteInterface not in remote_interfaces(CounterImpl)

    def test_plain_object_has_none(self):
        class NotRemote(RemoteObject):
            pass

        assert interface_names(NotRemote()) == ()

    def test_multiple_interfaces(self):
        class Both(RemoteObject, Counter, Item):
            pass

        names = interface_names(Both)
        assert qualified_name(Counter) in names
        assert qualified_name(Item) in names
