"""Reading a component's scoped telemetry ids in tests."""


def scoped(telemetry, metric_id):
    """The live value of one scoped id: a counter's value or a duration's
    count, 0 while it has never been written."""
    family = telemetry.families.get(metric_id)
    if family is None:
        return 0
    (child,) = family.children()
    return child.count if family.kind == "duration" else child.value
