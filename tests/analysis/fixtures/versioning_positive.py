"""VER001 positive fixture: mutations that miss a bump on some exit path."""


class Network:
    def drop_pointer(self, node) -> None:
        node.predecessor_id = None  # no bump anywhere

    def conditional_bump(self, node, flag: bool) -> None:
        node.successor_id = 7
        if flag:
            self.note_overlay_change()
        # fall-through without a bump when flag is False

    def early_return(self, node, flag: bool) -> int:
        node.successor_list = [1, 2]
        if flag:
            return 0  # exits before the bump below
        self.note_overlay_change()
        return 1

    def registry_edit(self, ident: int) -> None:
        del self._nodes[ident]

    def assigned_finger(self, node) -> bool:
        changed = node.set_finger(0, 5)  # the result is used, the write unbumped
        return changed

    def note_overlay_change(self) -> None:
        self.topology_version += 1
